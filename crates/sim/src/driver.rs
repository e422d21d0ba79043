//! The manifest execution engine: runs an [`ExperimentManifest`] on the
//! worker pool under panic supervision and assembles the paper-typed
//! result.
//!
//! This is the single path every experiment takes: `vmsim run`, `vmsim
//! serve` and the library entry points [`run_manifest`] /
//! [`run_supervised`] all hand a manifest here. A matrix manifest expands
//! to one job per (workload, policy, seed) cell, in workload-major order
//! (`index = (w·P + p)·S + s`); jobs run on the deterministic pool
//! ([`crate::parallel`]) and come back in job order, so a run is
//! bit-identical at any worker count and to the same cells run serially.
//! The two special kinds run their own loops here: [`sec64`] (the §6.4
//! allocation-latency microbenchmark) and [`walk_breakdown`] (raw
//! per-level counter capture).
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
    ReportKind, SupervisorSpec, WorkloadSpec,
};
use vmsim_obs::{json, Event, EventKind, Metric, MetricSource};
use vmsim_os::{GuestOs, Machine, MachineConfig};
use vmsim_types::{GuestVirtAddr, GuestVirtPage, MemError, RunError, PAGE_SIZE};
use vmsim_workloads::{BenchId, CoId};

use crate::engine::Colocation;
use crate::journal::{self, Journal, JournalEntry};
use crate::obs::ObservedRun;
use crate::parallel::{self, Parallelism};
use crate::progress::Progress;
use crate::report::{
    self, AllocLatency, BenchPair, FigureSweep, HwSensitivityRow, ReservedUnused, Table1, Table4,
    ThpRow, ThpStudy,
};
use crate::scenario::{AllocatorKind, CellBudget, RunMetrics, Scenario};
use crate::stats::Replication;

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

/// §6.1 run-to-run variance: one [`Replication`] per policy, paired by
/// seed.
#[derive(Clone, Debug)]
pub struct VarianceStudy {
    /// Baseline-policy runs, in seed order.
    pub base: Replication,
    /// Contender-policy runs, in seed order.
    pub ptemagnet: Replication,
}

/// One (workload, policy) cell of a pressure study: how a policy degrades
/// under that workload's fault plan, relative to the same policy under the
/// first (least-faulted) workload.
#[derive(Clone, Debug)]
pub struct PressureRow {
    /// Workload display label (typically encodes the fault severity).
    pub workload: String,
    /// Policy name.
    pub policy: String,
    /// Measured steady-state cycles (seed 0).
    pub cycles: u64,
    /// Execution-time degradation vs the first workload, same policy
    /// (positive = slower under faults).
    pub slowdown: f64,
    /// Allocations denied by the fault injector.
    pub faults_injected: u64,
    /// Reservation faults degraded to single-frame fallbacks.
    pub reservation_fallbacks: u64,
    /// Frames released by reclaim (daemon, storms, swap-out hooks).
    pub reclaimed_frames: u64,
}

/// One (workload, policy) cell of a multi-tenant colocation sweep: how a
/// policy behaves when the workload's VM fleet shares one overcommitted
/// host, relative to the first (baseline) policy under the same fleet.
#[derive(Clone, Debug)]
pub struct ColocationRow {
    /// Workload display label (typically encodes fleet size and churn).
    pub workload: String,
    /// Policy name.
    pub policy: String,
    /// VM fleet size.
    pub vms: u32,
    /// Whether the fleet ran under VM churn.
    pub churn: bool,
    /// Measured steady-state cycles of VM 0's benchmark (seed 0).
    pub cycles: u64,
    /// Execution-time improvement vs the first policy, same fleet
    /// (positive = faster).
    pub improvement: f64,
    /// Host-PT fragmentation of the measured VM after its allocation
    /// phase.
    pub host_frag: f64,
    /// Guest page faults taken fleet-wide over the whole run.
    pub total_faults: u64,
}

/// The typed result a manifest's report kind aggregates its runs into.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Generic per-run listing.
    Runs,
    /// Per-run CSV dump.
    Csv,
    /// Paper Table 1.
    Table1(Table1),
    /// Paper Table 4.
    Table4(Table4),
    /// Paper Figures 5–7 (which one is in the manifest's report kind).
    Figure(FigureSweep),
    /// Paper §6.2 reserved-unused incidence.
    Sec62(Vec<ReservedUnused>),
    /// THP study (§2.3).
    Thp(ThpStudy),
    /// §6.1 zero-overhead check: per-benchmark mean improvement.
    Specint(Vec<(String, f64)>),
    /// §6.1 run-to-run variance.
    Variance(VarianceStudy),
    /// LLC-capacity sweep: (LLC MB, improvement) pairs.
    Llc(Vec<(u64, f64)>),
    /// Hardware-sensitivity sweep.
    Hw(Vec<HwSensitivityRow>),
    /// §6.4 allocation-latency microbenchmark.
    AllocLatency(AllocLatency),
    /// §1/§3.2 walk-source breakdown.
    Breakdown(Vec<(String, MemCounters)>),
    /// Graceful-degradation study under fault injection, workload-major.
    Pressure(Vec<PressureRow>),
    /// Multi-tenant colocation sweep (VM count x churn x policy),
    /// workload-major.
    Colocation(Vec<ColocationRow>),
    /// At least one cell was quarantined; no aggregate result exists.
    Degraded,
}

/// The payload of a completed matrix cell: a freshly executed run or one
/// replayed from a [`Journal`].
#[derive(Debug)]
pub enum CellData {
    /// Executed in this process; full observability payload available.
    Fresh(ObservedRun),
    /// Replayed from a journal: metrics plus the original artifact text.
    Resumed(JournalEntry),
}

impl CellData {
    /// The cell's end-of-run aggregates.
    #[must_use]
    pub fn metrics(&self) -> &RunMetrics {
        match self {
            CellData::Fresh(run) => &run.metrics,
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
            Ok(CellData::Fresh(run)) => Some(run),
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
            Ok(CellData::Fresh(run)) => run.truncated,
            Ok(CellData::Resumed(entry)) => entry.truncated,
            Err(_) => false,
        }
    }

    /// The cell's trace artifact text, if it completed (empty string when
    /// tracing was off).
    #[must_use]
    pub fn events_jsonl(&self) -> Option<String> {
        match &self.data {
            Ok(CellData::Fresh(run)) => Some(run.events_jsonl()),
            Ok(CellData::Resumed(entry)) => Some(entry.events_jsonl.clone()),
            Err(_) => None,
        }
    }

    /// The cell's epoch-series CSV artifact text, if it completed.
    #[must_use]
    pub fn series_csv(&self) -> Option<String> {
        match &self.data {
            Ok(CellData::Fresh(run)) => Some(run.series.to_csv()),
            Ok(CellData::Resumed(entry)) => Some(entry.series_csv.clone()),
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
/// kinds), the supervisor's tally, and the aggregated outcome.
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
    /// The aggregated, report-kind-typed result.
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
    let allocator = ptemagnet::registry::resolve(policy.name())?;
    let mut scenario = Scenario::new(bench)
        .corunners(&corunners)
        .corunner_weight(workload.corunner_weight)
        .threads(workload.threads)
        .stop_corunners_after_init(workload.stop_corunners_after_init)
        .custom_allocator(allocator)
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

/// Validates and executes a manifest with no journal and no chaos drill.
/// Equivalent to [`run_supervised`] with a default [`Supervisor`].
///
/// # Errors
///
/// Returns [`DriverError`] if the manifest fails validation or a policy
/// does not resolve. Matrix cells never panic out of this function: a
/// failing cell is quarantined into its [`CellRun`] and the outcome
/// becomes [`Outcome::Degraded`].
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
    manifest.validate()?;
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
    // Resolve every policy once up front so name errors surface before any
    // simulation work (the pool closure then cannot fail on names).
    for policy in &matrix.policies {
        ptemagnet::registry::resolve(policy.name())?;
    }
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
    let outcome = if cells.iter().any(|c| c.data.is_err()) {
        Outcome::Degraded
    } else {
        let metrics: Vec<RunMetrics> = cells
            .iter()
            .map(|c| c.metrics().expect("no cell failed").clone())
            .collect();
        assemble(manifest, matrix, &metrics)
    };
    Ok(ManifestRun {
        manifest: manifest.clone(),
        cells,
        supervision,
        supervisor_events,
        outcome,
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
                data: Ok(CellData::Resumed(entry.clone())),
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
                Some(progress) => scenario.try_run_supervised_with_progress(
                    manifest.obs,
                    budget,
                    progress.heartbeat_ops(),
                    &mut |pulse| {
                        progress.heartbeat(
                            i as u64,
                            &label,
                            policy.name(),
                            base_seed,
                            attempt + 1,
                            &pulse,
                        );
                    },
                ),
                None => scenario.try_run_supervised(manifest.obs, budget),
            }
        }));
        last = Some(match outcome {
            Ok(Ok(run)) => {
                let cell = CellRun {
                    index: i,
                    attempts: attempt + 1,
                    resumed: false,
                    data: Ok(CellData::Fresh(run)),
                };
                if let (Some(journal), Ok(CellData::Fresh(run))) = (sup.journal, &cell.data) {
                    journal.record(
                        i as u64,
                        &label,
                        policy.name(),
                        base_seed,
                        cell.attempts,
                        run,
                    );
                }
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

/// The colocation label a figure sweep reports: the shared co-runner name,
/// `combination` for several, `standalone` for none, `mixed` if workloads
/// disagree.
fn colocation_label(workloads: &[WorkloadSpec]) -> String {
    let first = workloads
        .first()
        .map(|w| w.corunners.clone())
        .unwrap_or_default();
    if workloads.iter().any(|w| w.corunners != first) {
        return "mixed".to_string();
    }
    match first.len() {
        0 => "standalone".to_string(),
        1 => first[0].clone(),
        _ => "combination".to_string(),
    }
}

fn assemble(manifest: &ExperimentManifest, matrix: &MatrixSpec, metrics: &[RunMetrics]) -> Outcome {
    let (pn, sn) = (matrix.policies.len(), manifest.seeds.len());
    let at = |w: usize, p: usize, s: usize| &metrics[(w * pn + p) * sn + s];
    match matrix.report {
        ReportKind::Runs => Outcome::Runs,
        ReportKind::Csv => Outcome::Csv,
        ReportKind::Pressure => {
            let mut rows = Vec::new();
            for (w, workload) in matrix.workloads.iter().enumerate() {
                for (p, policy) in matrix.policies.iter().enumerate() {
                    let m = at(w, p, 0);
                    let base = at(0, p, 0);
                    rows.push(PressureRow {
                        workload: workload.display_label(),
                        policy: policy.name().to_string(),
                        cycles: m.cycles,
                        slowdown: m.cycles as f64 / base.cycles.max(1) as f64 - 1.0,
                        faults_injected: m.faults_injected,
                        reservation_fallbacks: m.reservation_fallbacks,
                        reclaimed_frames: m.reclaimed_frames,
                    });
                }
            }
            Outcome::Pressure(rows)
        }
        ReportKind::Table1 => Outcome::Table1(Table1 {
            standalone: at(0, 0, 0).clone(),
            colocated: at(1, 0, 0).clone(),
        }),
        ReportKind::Table4 => Outcome::Table4(Table4 {
            default: at(0, 0, 0).clone(),
            ptemagnet: at(0, 1, 0).clone(),
        }),
        ReportKind::Fig5 | ReportKind::Fig6 | ReportKind::Fig7 => Outcome::Figure(FigureSweep {
            colocation: colocation_label(&matrix.workloads),
            pairs: matrix
                .workloads
                .iter()
                .enumerate()
                .map(|(w, workload)| BenchPair {
                    name: workload.benchmark.clone(),
                    default: at(w, 0, 0).clone(),
                    ptemagnet: at(w, 1, 0).clone(),
                })
                .collect(),
        }),
        ReportKind::Sec62 => Outcome::Sec62(
            matrix
                .workloads
                .iter()
                .enumerate()
                .map(|(w, workload)| {
                    let m = at(w, 0, 0);
                    ReservedUnused {
                        name: workload.benchmark.clone(),
                        peak_fraction: m.reserved_unused_fraction(),
                        mean_fraction: if m.footprint_pages == 0 {
                            0.0
                        } else {
                            m.reserved_unused_mean / m.footprint_pages as f64
                        },
                    }
                })
                .collect(),
        ),
        ReportKind::Thp => {
            let mut rows = Vec::new();
            for (w, workload) in matrix.workloads.iter().enumerate() {
                let default = at(w, 0, 0);
                for (p, policy) in matrix.policies.iter().enumerate() {
                    let metrics = at(w, p, 0);
                    rows.push(ThpRow {
                        allocator: policy.name().to_string(),
                        condition: workload.display_label(),
                        improvement: metrics.improvement_over(default),
                        metrics: metrics.clone(),
                    });
                }
            }
            Outcome::Thp(ThpStudy {
                rows,
                sparse_rss_per_touched: sparse_rss(&matrix.policies),
            })
        }
        ReportKind::Specint => Outcome::Specint(
            matrix
                .workloads
                .iter()
                .enumerate()
                .map(|(w, workload)| {
                    let mean = (0..sn)
                        .map(|s| at(w, 1, s).improvement_over(at(w, 0, s)))
                        .sum::<f64>()
                        / sn as f64;
                    (workload.benchmark.clone(), mean)
                })
                .collect(),
        ),
        ReportKind::Variance => Outcome::Variance(VarianceStudy {
            base: Replication {
                runs: (0..sn).map(|s| at(0, 0, s).clone()).collect(),
            },
            ptemagnet: Replication {
                runs: (0..sn).map(|s| at(0, 1, s).clone()).collect(),
            },
        }),
        ReportKind::Llc => Outcome::Llc(
            matrix
                .workloads
                .iter()
                .enumerate()
                .map(|(w, workload)| {
                    let mb = workload
                        .sim
                        .and_then(|s| s.llc_mb)
                        .expect("llc manifest pre-validated");
                    (mb, at(w, 1, 0).improvement_over(at(w, 0, 0)))
                })
                .collect(),
        ),
        ReportKind::Colocation => {
            let mut rows = Vec::new();
            for (w, workload) in matrix.workloads.iter().enumerate() {
                let spec = workload
                    .vms
                    .or(manifest.vms)
                    .expect("colocation manifest pre-validated");
                let base = at(w, 0, 0);
                for (p, policy) in matrix.policies.iter().enumerate() {
                    let m = at(w, p, 0);
                    rows.push(ColocationRow {
                        workload: workload.display_label(),
                        policy: policy.name().to_string(),
                        vms: spec.count,
                        churn: spec.churn_period_ops.is_some(),
                        cycles: m.cycles,
                        improvement: m.improvement_over(base),
                        host_frag: m.host_frag,
                        total_faults: m.total_faults,
                    });
                }
            }
            Outcome::Colocation(rows)
        }
        ReportKind::Hw => Outcome::Hw(
            matrix
                .workloads
                .iter()
                .enumerate()
                .map(|(w, workload)| {
                    let sim = workload.sim.unwrap_or_default();
                    let (knob, value) = match sim.stlb_entries {
                        Some(v) => ("stlb", v),
                        None => (
                            "nested-tlb",
                            sim.nested_tlb_entries.expect("hw manifest pre-validated"),
                        ),
                    };
                    let base = at(w, 0, 0);
                    HwSensitivityRow {
                        knob: knob.to_string(),
                        value,
                        tlb_miss_ratio: base.tlb_misses as f64 / base.tlb_lookups.max(1) as f64,
                        improvement: at(w, 1, 0).improvement_over(base),
                    }
                })
                .collect(),
        ),
    }
}

/// The THP study's sparse-touch microbenchmark: touch every 8th page of a
/// large VMA and report resident pages per touched page, one value per
/// policy (THP's hidden internal-fragmentation cost).
fn sparse_rss(policies: &[PolicySpec]) -> [f64; 3] {
    let sparse = |policy: &PolicySpec| -> f64 {
        let allocator = ptemagnet::registry::resolve(policy.name()).expect("policy pre-resolved");
        let mut m = Machine::with_allocator(MachineConfig::paper(1, 128), allocator);
        let pid = m.guest_mut().spawn();
        let base = m.guest_mut().mmap(pid, 8192).expect("mmap");
        let touched = 8192 / 8;
        for i in 0..touched {
            m.touch(
                0,
                pid,
                GuestVirtAddr::new(base.raw() + i * 8 * PAGE_SIZE),
                true,
            )
            .expect("touch");
        }
        m.guest().process(pid).expect("pid").rss_pages as f64 / touched as f64
    };
    let values = parallel::map_indexed(Parallelism::from_env(), policies, sparse);
    [values[0], values[1], values[2]]
}

/// The §6.2 adversarial microbenchmark: an application touching only every
/// eighth page reserves ~7× its footprint. Returns the report line.
fn sec62_adversarial() -> String {
    let mut guest = GuestOs::new(1 << 16, Box::new(ptemagnet::ReservationAllocator::new()));
    let pid = guest.spawn();
    let va = guest.mmap(pid, 4096).expect("mmap");
    for g in 0..512u64 {
        guest
            .page_fault(pid, GuestVirtPage::new(va.page().raw() + g * 8))
            .expect("fault");
    }
    let unused = guest.allocator().reserved_unused_frames();
    format!(
        "\nAdversarial every-8th-page app: footprint 512 pages, reserved-unused {} pages ({}x)\n",
        unused,
        unused / 512
    )
}

/// The §6.4 allocation-latency microbenchmark: allocate an array of
/// `pages` and first-touch every page once, with and without PTEMagnet.
/// (The paper uses a 60 GB array; `pages` scales it to the simulated VM.)
///
/// # Panics
///
/// Panics if `pages` is zero.
pub fn sec64(pages: u64) -> AllocLatency {
    assert!(pages > 0);
    let run = |kind: AllocatorKind| -> u64 {
        // Size the VM to hold the array plus page tables comfortably.
        let guest_mb = (pages * 8 / 256).max(64);
        let config = MachineConfig::paper(1, guest_mb);
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
    let mut cycles = parallel::map_indexed(Parallelism::from_env(), &kinds, |&kind| run(kind));
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
/// LLC/DRAM, and PTEMagnet pulls them back in. The co-runner seed is
/// `seed + 1`, not the scenario engine's derivation.
pub fn walk_breakdown(seed: u64, measure_ops: u64) -> Vec<(String, MemCounters)> {
    let kinds = [AllocatorKind::Default, AllocatorKind::PteMagnet];
    parallel::map_indexed(Parallelism::from_env(), &kinds, |&kind| {
        let machine = Machine::with_allocator(MachineConfig::paper(2, 1024), kind.build());
        let mut colo = Colocation::new(machine);
        let primary = colo.add_app(
            Box::new(vmsim_workloads::benchmark(BenchId::Pagerank, seed)),
            1,
        );
        colo.add_app(vmsim_workloads::corunner(CoId::Objdet, seed + 1), 4);
        colo.run_until_steady(primary).expect("init");
        colo.machine_mut().reset_measurement();
        colo.run_ops(primary, measure_ops, |_| {}).expect("measure");
        let core = colo.core(primary);
        (
            kind.name().to_string(),
            *colo.machine().caches().core_counters(core),
        )
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

    fn report_kind(&self) -> Option<ReportKind> {
        match &self.manifest.experiment {
            ExperimentSpec::Matrix(matrix) => Some(matrix.report),
            _ => None,
        }
    }

    /// Renders the result as the paper-style text `vmsim run` prints. A
    /// degraded run gets a per-cell status listing; any run with
    /// quarantined/retried/truncated cells gets the supervisor summary
    /// appended (clean runs are byte-identical to before).
    pub fn report(&self) -> String {
        let mut text = self.outcome_report();
        if !self.supervision.is_clean() && !matches!(self.outcome, Outcome::Degraded) {
            text.push_str(&self.supervision_summary());
        }
        text
    }

    fn outcome_report(&self) -> String {
        match &self.outcome {
            Outcome::Degraded => self.degraded_listing(),
            Outcome::Runs => self.runs_listing(),
            Outcome::Csv => report::runs_to_csv(&self.metrics()),
            Outcome::Table1(t) => report::format_table1(t),
            Outcome::Table4(t) => report::format_table4(t),
            Outcome::Figure(sweep) => match self.report_kind() {
                Some(ReportKind::Fig5) => report::format_fig5(sweep),
                Some(ReportKind::Fig7) => format!(
                    "{}\n{}",
                    report::format_improvement_figure(sweep, "Figure 7"),
                    report::figure_as_bars(sweep)
                ),
                _ => format!(
                    "{}\n{}",
                    report::format_improvement_figure(sweep, "Figure 6"),
                    report::figure_as_bars(sweep)
                ),
            },
            Outcome::Sec62(rows) => {
                format!("{}{}", report::format_sec62(rows), sec62_adversarial())
            }
            Outcome::Thp(study) => report::format_thp(study),
            Outcome::Specint(rows) => {
                let mut out = String::new();
                let _ = writeln!(
                    out,
                    "Zero-overhead check: low-TLB-pressure SPECint + objdet"
                );
                let _ = writeln!(out, "{:<12} {:>12}", "benchmark", "improvement");
                let mut worst = f64::INFINITY;
                for (name, imp) in rows {
                    let _ = writeln!(out, "{name:<12} {:>+11.2}%", imp * 100.0);
                    worst = worst.min(*imp);
                }
                let _ = writeln!(
                    out,
                    "\nWorst case: {:+.2}% — {}",
                    worst * 100.0,
                    if worst > -0.01 {
                        "PTEMagnet never slows anything down (paper's claim holds)"
                    } else {
                        "REGRESSION: the zero-overhead claim failed"
                    }
                );
                out
            }
            Outcome::Variance(v) => self.variance_report(v),
            Outcome::Llc(rows) => {
                let mut out = String::new();
                let _ = writeln!(out, "{}", self.manifest.description);
                let _ = writeln!(out, "{:<8} {:>12}", "LLC", "improvement");
                for (mb, imp) in rows {
                    let _ = writeln!(out, "{:<8} {:>+11.1}%", format!("{mb} MB"), imp * 100.0);
                }
                out
            }
            Outcome::Hw(rows) => {
                let mut out = String::new();
                let _ = writeln!(out, "{}", self.manifest.description);
                let _ = writeln!(
                    out,
                    "{:<12} {:>8} {:>10} {:>12}",
                    "knob", "entries", "tlb-miss", "improvement"
                );
                for row in rows {
                    let _ = writeln!(
                        out,
                        "{:<12} {:>8} {:>9.1}% {:>+11.1}%",
                        row.knob,
                        row.value,
                        row.tlb_miss_ratio * 100.0,
                        row.improvement * 100.0
                    );
                }
                out
            }
            Outcome::Pressure(rows) => {
                let mut out = String::new();
                let _ = writeln!(out, "{}", self.manifest.description);
                let _ = writeln!(
                    out,
                    "{:<16} {:<12} {:>14} {:>10} {:>10} {:>10} {:>10}",
                    "workload",
                    "policy",
                    "cycles",
                    "slowdown",
                    "injected",
                    "fallbacks",
                    "reclaimed"
                );
                for row in rows {
                    let _ = writeln!(
                        out,
                        "{:<16} {:<12} {:>14} {:>+9.1}% {:>10} {:>10} {:>10}",
                        row.workload,
                        row.policy,
                        row.cycles,
                        row.slowdown * 100.0,
                        row.faults_injected,
                        row.reservation_fallbacks,
                        row.reclaimed_frames
                    );
                }
                out
            }
            Outcome::Colocation(rows) => {
                let mut out = String::new();
                let _ = writeln!(out, "{}", self.manifest.description);
                let _ = writeln!(
                    out,
                    "{:<20} {:<12} {:>5} {:>6} {:>14} {:>12} {:>10} {:>12}",
                    "fleet",
                    "policy",
                    "vms",
                    "churn",
                    "cycles",
                    "improvement",
                    "host-frag",
                    "faults"
                );
                for row in rows {
                    let _ = writeln!(
                        out,
                        "{:<20} {:<12} {:>5} {:>6} {:>14} {:>+11.1}% {:>10.3} {:>12}",
                        row.workload,
                        row.policy,
                        row.vms,
                        if row.churn { "on" } else { "off" },
                        row.cycles,
                        row.improvement * 100.0,
                        row.host_frag,
                        row.total_faults
                    );
                }
                out
            }
            Outcome::AllocLatency(r) => report::format_sec64(r),
            Outcome::Breakdown(rows) => {
                let mut out = String::new();
                for (allocator, counters) in rows {
                    out.push_str(&report::format_breakdown(allocator, counters));
                    let ratio = if counters.guest_pt.memory == 0 {
                        f64::INFINITY
                    } else {
                        counters.host_pt.memory as f64 / counters.guest_pt.memory as f64
                    };
                    let _ = writeln!(
                        out,
                        "-> host-PT DRAM accesses are {ratio:.1}x the guest-PT's (paper: 4.4x under colocation)\n"
                    );
                }
                out
            }
        }
    }

    fn variance_report(&self, v: &VarianceStudy) -> String {
        let (label, policies) = match &self.manifest.experiment {
            ExperimentSpec::Matrix(matrix) => (
                matrix.workloads[0].display_label(),
                (
                    matrix.policies[0].name().to_string(),
                    matrix.policies[1].name().to_string(),
                ),
            ),
            _ => unreachable!("variance is a matrix report"),
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Variance study: {label} across {} seeds, {} ops each",
            self.manifest.seeds.len(),
            self.manifest.measure_ops
        );
        let _ = writeln!(
            out,
            "{:<11} {:>10} {:>22}",
            "allocator", "cv", "improvement (mean±sd)"
        );
        let _ = writeln!(
            out,
            "{:<11} {:>9.2}% {:>22}",
            policies.0,
            v.base.cycles().cv() * 100.0,
            "-"
        );
        let imp = v.ptemagnet.improvement_over(&v.base);
        let _ = writeln!(
            out,
            "{:<11} {:>9.2}% {:>14.1}% ± {:.1}%",
            policies.1,
            v.ptemagnet.cycles().cv() * 100.0,
            imp.mean * 100.0,
            imp.stddev * 100.0
        );
        let _ = writeln!(
            out,
            "\nPaper: execution-time stddev over 40 runs <= 2%. Measured cv: {:.2}% / {:.2}%.",
            v.base.cycles().cv() * 100.0,
            v.ptemagnet.cycles().cv() * 100.0
        );
        out
    }

    fn runs_listing(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.manifest.description);
        let _ = writeln!(
            out,
            "{:<24} {:<14} {:>6} {:>14} {:>10}",
            "workload", "policy", "seed", "cycles", "host-frag"
        );
        self.for_each_cell(|workload, policy, seed, cell| {
            if let Some(m) = cell.metrics() {
                let _ = writeln!(
                    out,
                    "{:<24} {:<14} {:>6} {:>14} {:>10.3}",
                    workload.display_label(),
                    policy.name(),
                    seed,
                    m.cycles,
                    m.host_frag
                );
            }
        });
        out
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
            _ => {
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
        assert!(matches!(run.outcome, Outcome::Runs));
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
        assert!(matches!(run.outcome, Outcome::Degraded));
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
        assert!(matches!(run.outcome, Outcome::Runs), "not degraded");
        assert_eq!(run.cells[0].attempts, 2);
        assert_eq!(run.supervision.quarantined, 0);
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
