//! The typed experiment-manifest layer.
//!
//! An [`ExperimentManifest`] declares a full evaluation matrix — policies ×
//! workloads × replication seeds, plus machine and observability knobs — as
//! data. Every paper experiment is a manifest (see [`crate::builtin`] and
//! the checked-in `manifests/` directory); the `vmsim` CLI and the
//! `vmsim-sim` driver consume manifests directly, so new policies and
//! workloads are data, not new binaries.
//!
//! Serialization is plain JSON via the `vmsim-obs` parser/writer (the
//! workspace has no `serde_json`): [`ExperimentManifest::to_json`] emits a
//! canonical pretty form and [`ExperimentManifest::from_json`] accepts any
//! RFC 8259 document with the right shape. `to_json ∘ from_json` is
//! byte-identical on canonical input — the golden tests in this crate pin
//! that for every checked-in manifest.

use std::fmt::Write as _;

use vmsim_obs::json::{self, Json};
use vmsim_os::CostModel;
use vmsim_types::FaultPlan;
use vmsim_workloads::{BenchId, CoId};

use crate::obs::ObsConfig;

/// A structurally or semantically invalid manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestError {
    /// Where in the document the problem is (`$.experiment.workloads[2]`).
    pub context: String,
    /// What is wrong.
    pub message: String,
}

impl ManifestError {
    /// An error at `context` (a JSON path) saying `message`.
    pub fn new(context: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            context: context.into(),
            message: message.into(),
        }
    }
}

impl core::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}: {}", self.context, self.message)
    }
}

impl std::error::Error for ManifestError {}

type Result<T> = core::result::Result<T, ManifestError>;

/// A named guest frame-allocation policy, resolved to a concrete allocator
/// by the registry in `ptemagnet::registry`.
///
/// Known names: `default`, `ptemagnet`, `thp`, `ca-paging-like`, and the
/// parameterized granularity ablation `granular:N` (N ∈ {1, 2, 4, 8, 16}).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PolicySpec(String);

impl PolicySpec {
    /// Wraps a policy name. Resolution happens in the registry.
    pub fn new(name: impl Into<String>) -> Self {
        Self(name.into())
    }

    /// The policy name as written in the manifest.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl core::fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for PolicySpec {
    fn from(name: &str) -> Self {
        Self::new(name)
    }
}

/// Machine/cache/cost-model overrides over the paper's platform
/// ([`vmsim_os::MachineConfig::paper`]). `None` everywhere = the exact
/// legacy configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimConfig {
    /// VM RAM in MB (default 1024).
    pub guest_mb: Option<u64>,
    /// Simulated cores (default: 1 + co-runner count).
    pub cores: Option<usize>,
    /// LLC capacity in MB (16-way, as in the LLC-sensitivity study).
    pub llc_mb: Option<u64>,
    /// L2 STLB entries.
    pub stlb_entries: Option<usize>,
    /// Nested-TLB entries.
    pub nested_tlb_entries: Option<usize>,
    /// Software-event cycle costs (full override).
    pub cost: Option<CostModel>,
}

impl SimConfig {
    /// Whether every knob is at its default.
    pub fn is_vanilla(&self) -> bool {
        *self == Self::default()
    }

    /// Resolves the spec to a concrete [`vmsim_os::MachineConfig`],
    /// starting from the paper platform with `default_cores` cores. Any
    /// knob value resolves; [`vmsim_os::MachineConfig::check`] says whether
    /// a machine can be built from the result.
    pub fn to_machine_config(&self, default_cores: usize) -> vmsim_os::MachineConfig {
        let cores = self.cores.unwrap_or(default_cores);
        let guest_mb = self.guest_mb.unwrap_or(1024);
        let mut config = vmsim_os::MachineConfig::paper(cores, guest_mb);
        if let Some(mb) = self.llc_mb {
            config.hierarchy.llc = vmsim_cache::CacheConfig::sized(mb.saturating_mul(1 << 20), 16);
        }
        if let Some(entries) = self.stlb_entries {
            config.tlb.l2_entries = entries;
        }
        if let Some(entries) = self.nested_tlb_entries {
            config.pwc.nested_tlb_entries = entries;
        }
        if let Some(cost) = self.cost {
            config.cost = cost;
        }
        config
    }

    /// Layers `over` on top of `self`: any knob set in `over` wins.
    pub fn overlaid(&self, over: &SimConfig) -> SimConfig {
        SimConfig {
            guest_mb: over.guest_mb.or(self.guest_mb),
            cores: over.cores.or(self.cores),
            llc_mb: over.llc_mb.or(self.llc_mb),
            stlb_entries: over.stlb_entries.or(self.stlb_entries),
            nested_tlb_entries: over.nested_tlb_entries.or(self.nested_tlb_entries),
            cost: over.cost.or(self.cost),
        }
    }
}

/// The multi-tenant host shape: how many guest VMs share the machine, how
/// overcommitted the host pool is, and the churn/balloon pressure applied
/// during measurement. A spec with `count` 1 and every pressure knob off is
/// *inactive*: the run takes the single-guest shape and is bit-identical
/// to a manifest with no `vms` section at all.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VmsSpec {
    /// Guest VMs colocated on the host.
    pub count: u32,
    /// Memory overcommit ratio: host frames = count × guest frames /
    /// overcommit (1.0 = fully provisioned).
    pub overcommit: f64,
    /// Kill-and-reboot one batch of VMs every this many measured ops
    /// (`None` = no churn).
    pub churn_period_ops: Option<u64>,
    /// VMs killed (and immediately rebooted) per churn event.
    pub churn_kills: u32,
    /// Balloon guests when the host free-frame fraction drops below this
    /// watermark (`None` = no balloon pressure).
    pub balloon_watermark: Option<f64>,
}

impl Default for VmsSpec {
    fn default() -> Self {
        Self {
            count: 1,
            overcommit: 1.0,
            churn_period_ops: None,
            churn_kills: 1,
            balloon_watermark: None,
        }
    }
}

impl VmsSpec {
    /// Upper bound on `count`; a manifest asking for more is rejected.
    pub const MAX_VMS: u32 = 256;
    /// Upper bound on `overcommit`.
    pub const MAX_OVERCOMMIT: f64 = 8.0;

    /// A plain `count`-VM host with no overcommit, churn, or ballooning.
    #[must_use]
    pub fn colocated(count: u32) -> Self {
        Self {
            count,
            ..Self::default()
        }
    }

    /// Whether this spec actually changes the machine: an inactive spec
    /// (1 VM, no overcommit, no churn, no balloon) keeps the single-guest
    /// host pool and workload seeds, bit-identical to having no spec at
    /// all.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.count > 1
            || self.overcommit != 1.0
            || self.churn_period_ops.is_some()
            || self.balloon_watermark.is_some()
    }
}

/// One workload configuration: benchmark + colocation + memory condition.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Display label for reports (`None` = derived from the benchmark and
    /// co-runner names).
    pub label: Option<String>,
    /// Benchmark name ([`BenchId`] display name).
    pub benchmark: String,
    /// Co-runner names ([`CoId`] display names).
    pub corunners: Vec<String>,
    /// Co-runner scheduling weight (ops per benchmark op).
    pub corunner_weight: u32,
    /// Simulated guest threads faulting concurrently inside the benchmark
    /// process (1..=64). `1` — the default and the legacy shape — routes
    /// through the serial engine bit-identically; `N > 1` interleaves `N`
    /// faulting threads deterministically from the run seed. This key is
    /// the only source of the count: to run a matrix with `N` guest
    /// threads, set each workload's `"threads": N` in the manifest.
    pub threads: u32,
    /// Stop co-runners once the benchmark finishes allocating (§3.3).
    pub stop_corunners_after_init: bool,
    /// Pre-fragment free guest memory into runs of this many frames.
    pub prefragment_run: Option<u64>,
    /// Per-workload machine overrides, layered over the manifest's.
    pub sim: Option<SimConfig>,
    /// Per-workload fault plan; replaces the manifest-level plan wholesale.
    pub faults: Option<FaultPlan>,
    /// Per-workload multi-tenant host shape; replaces the manifest-level
    /// `vms` section wholesale.
    pub vms: Option<VmsSpec>,
}

impl WorkloadSpec {
    /// A solo workload with the legacy defaults (weight 1, no co-runners).
    pub fn new(benchmark: impl Into<String>) -> Self {
        Self {
            label: None,
            benchmark: benchmark.into(),
            corunners: Vec::new(),
            corunner_weight: 1,
            threads: 1,
            stop_corunners_after_init: false,
            prefragment_run: None,
            sim: None,
            faults: None,
            vms: None,
        }
    }

    /// Builder: sets the co-runners.
    pub fn with_corunners(mut self, corunners: &[CoId], weight: u32) -> Self {
        self.corunners = corunners.iter().map(|c| c.name().to_string()).collect();
        self.corunner_weight = weight;
        self
    }

    /// Builder: sets the simulated guest-thread count (validated 1..=64 by
    /// [`ExperimentManifest::validate`]).
    pub fn with_threads(mut self, threads: u32) -> Self {
        self.threads = threads;
        self
    }

    /// Builder: sets the report label.
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Builder: sets machine overrides.
    pub fn with_sim(mut self, sim: SimConfig) -> Self {
        self.sim = Some(sim);
        self
    }

    /// Builder: sets the per-workload fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Builder: sets the per-workload multi-tenant host shape.
    pub fn with_vms(mut self, vms: VmsSpec) -> Self {
        self.vms = Some(vms);
        self
    }

    /// The label used in reports: explicit, or derived
    /// (`pagerank+objdet`).
    pub fn display_label(&self) -> String {
        if let Some(label) = &self.label {
            return label.clone();
        }
        let mut out = self.benchmark.clone();
        for co in &self.corunners {
            out.push('+');
            out.push_str(co);
        }
        out
    }

    /// The parsed benchmark identity.
    ///
    /// # Errors
    ///
    /// Returns [`ManifestError`] for an unknown benchmark name.
    pub fn bench_id(&self) -> Result<BenchId> {
        BenchId::from_name(&self.benchmark).ok_or_else(|| {
            ManifestError::new(
                "workload.benchmark",
                format!("unknown benchmark {:?}", self.benchmark),
            )
        })
    }

    /// The parsed co-runner identities.
    ///
    /// # Errors
    ///
    /// Returns [`ManifestError`] for an unknown co-runner name.
    pub fn co_ids(&self) -> Result<Vec<CoId>> {
        self.corunners
            .iter()
            .map(|name| {
                CoId::from_name(name).ok_or_else(|| {
                    ManifestError::new("workload.corunners", format!("unknown co-runner {name:?}"))
                })
            })
            .collect()
    }
}

/// How a matrix experiment's runs are aggregated and rendered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReportKind {
    /// Generic per-run listing (the smoke manifest).
    Runs,
    /// Per-run CSV dump on stdout.
    Csv,
    /// Paper Table 1 (standalone vs colocated, default kernel).
    Table1,
    /// Paper Table 4 (default vs PTEMagnet, co-runner throughout).
    Table4,
    /// Paper Figure 5 (host-PT fragmentation per benchmark).
    Fig5,
    /// Paper Figure 6 (improvement per benchmark, objdet colocation).
    Fig6,
    /// Paper Figure 7 (improvement per benchmark, combination colocation).
    Fig7,
    /// Paper §6.2 (reserved-but-unused incidence).
    Sec62,
    /// THP study (§2.3): fresh vs fragmented memory conditions.
    Thp,
    /// §6.1 zero-overhead check on low-TLB-pressure SPECint.
    Specint,
    /// §6.1 run-to-run variance across seeds.
    Variance,
    /// Artifact appendix A.3.2 LLC-capacity sweep.
    Llc,
    /// Hardware sensitivity (STLB / nested-TLB knobs).
    Hw,
    /// Degradation under rising fault-injection rates (robustness study).
    Pressure,
    /// Multi-tenant colocation sweep: VM count × churn × policy on one
    /// overcommitted host.
    Colocation,
}

impl ReportKind {
    /// Every kind, for `vmsim list`.
    pub const ALL: [ReportKind; 15] = [
        ReportKind::Runs,
        ReportKind::Csv,
        ReportKind::Table1,
        ReportKind::Table4,
        ReportKind::Fig5,
        ReportKind::Fig6,
        ReportKind::Fig7,
        ReportKind::Sec62,
        ReportKind::Thp,
        ReportKind::Specint,
        ReportKind::Variance,
        ReportKind::Llc,
        ReportKind::Hw,
        ReportKind::Pressure,
        ReportKind::Colocation,
    ];

    /// The manifest string form.
    pub fn as_str(self) -> &'static str {
        match self {
            ReportKind::Runs => "runs",
            ReportKind::Csv => "csv",
            ReportKind::Table1 => "table1",
            ReportKind::Table4 => "table4",
            ReportKind::Fig5 => "fig5",
            ReportKind::Fig6 => "fig6",
            ReportKind::Fig7 => "fig7",
            ReportKind::Sec62 => "sec62",
            ReportKind::Thp => "thp",
            ReportKind::Specint => "specint",
            ReportKind::Variance => "variance",
            ReportKind::Llc => "llc",
            ReportKind::Hw => "hw",
            ReportKind::Pressure => "pressure",
            ReportKind::Colocation => "colocation",
        }
    }

    /// Parses the manifest string form.
    pub fn from_str_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.as_str() == name)
    }
}

/// The policies × workloads matrix with its aggregation rule.
#[derive(Clone, Debug, PartialEq)]
pub struct MatrixSpec {
    /// How runs are aggregated and rendered.
    pub report: ReportKind,
    /// Allocation policies, in report column order.
    pub policies: Vec<PolicySpec>,
    /// Workloads, in report row order.
    pub workloads: Vec<WorkloadSpec>,
}

impl MatrixSpec {
    /// Number of scenario runs the matrix expands to per seed.
    pub fn runs_per_seed(&self) -> usize {
        self.policies.len() * self.workloads.len()
    }
}

/// What an experiment actually executes.
#[derive(Clone, Debug, PartialEq)]
pub enum ExperimentSpec {
    /// The general policies × workloads × seeds matrix.
    Matrix(MatrixSpec),
    /// §6.4 allocation-latency microbenchmark (not a scenario run).
    AllocLatency {
        /// Pages allocated and first-touched.
        pages: u64,
    },
    /// §1/§3.2 walk-source breakdown (raw counter capture).
    WalkBreakdown,
}

impl ExperimentSpec {
    /// The manifest `kind` string.
    pub fn kind(&self) -> &'static str {
        match self {
            ExperimentSpec::Matrix(_) => "matrix",
            ExperimentSpec::AllocLatency { .. } => "alloc-latency",
            ExperimentSpec::WalkBreakdown => "walk-breakdown",
        }
    }
}

/// Supervisor policy for one experiment: how quarantined (panicked or
/// errored) cells are retried and what per-cell budgets apply.
///
/// Retry decisions are a pure function of (manifest hash, cell index,
/// attempt) — no wall-clock enters the seed derivation — so a retried run
/// is exactly reproducible. The soft wall-time budget is the one
/// deliberately wall-clock-dependent knob: it exists to truncate a hung
/// cell, and truncation is always marked explicitly in the results.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupervisorSpec {
    /// Extra attempts granted to a quarantined cell (0 = fail fast).
    pub retries: u32,
    /// Seed-perturbation stride mixed into each retry attempt's seed.
    /// 0 keeps the original seed on every attempt (pure re-execution).
    pub seed_stride: u64,
    /// Per-cell measured-operation budget; a cell whose manifest asks for
    /// more ops is truncated at this many and marked partial.
    pub max_cell_ops: Option<u64>,
    /// Per-cell soft wall-time budget in milliseconds; an over-budget cell
    /// stops at the next checkpoint and is marked truncated.
    pub soft_wall_ms: Option<u64>,
}

impl SupervisorSpec {
    /// Upper bound on `retries`; a manifest asking for more is rejected
    /// (deterministic retry is for transient chaos, not infinite loops).
    pub const MAX_RETRIES: u32 = 16;
}

/// A complete, serializable description of one experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentManifest {
    /// Experiment name; also the `results/<name>.json` artifact stem.
    pub name: String,
    /// Human description (which paper table/figure this reproduces).
    pub description: String,
    /// Replication seeds, in run order.
    pub seeds: Vec<u64>,
    /// Measured steady-state operations per run.
    pub measure_ops: u64,
    /// Observability configuration for every run.
    pub obs: ObsConfig,
    /// Manifest-wide machine overrides (`None` = paper platform).
    pub sim: Option<SimConfig>,
    /// Manifest-wide fault plan applied to every run (`None` = no faults).
    /// A workload's own plan, when set, replaces this one wholesale.
    pub faults: Option<FaultPlan>,
    /// Manifest-wide multi-tenant host shape (`None` = the single-guest
    /// machine). A workload's own spec, when set, replaces this one
    /// wholesale.
    pub vms: Option<VmsSpec>,
    /// Supervisor policy: retries and per-cell budgets (`None` = fail fast,
    /// no budgets).
    pub supervisor: Option<SupervisorSpec>,
    /// The experiment body.
    pub experiment: ExperimentSpec,
}

impl ExperimentManifest {
    /// Semantic validation: every name resolves, the matrix is non-empty,
    /// and the report kind's shape constraints hold. Policy-name
    /// resolution is the registry's job (`vmsim validate` runs both).
    ///
    /// # Errors
    ///
    /// Returns the first [`ManifestError`] found.
    pub fn validate(&self) -> Result<()> {
        if self.name.is_empty()
            || !self
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(ManifestError::new(
                "$.name",
                "must be a non-empty [a-zA-Z0-9_-]+ artifact stem",
            ));
        }
        if self.seeds.is_empty() {
            return Err(ManifestError::new("$.seeds", "need at least one seed"));
        }
        if self.measure_ops == 0 {
            return Err(ManifestError::new("$.measure_ops", "must be positive"));
        }
        if self.obs.trace_capacity == 0 {
            return Err(ManifestError::new(
                "$.obs.trace_capacity",
                "must be positive",
            ));
        }
        if self.obs.epoch_ops == Some(0) {
            return Err(ManifestError::new(
                "$.obs.epoch_ops",
                "period must be positive (or null to disable)",
            ));
        }
        if let Some(plan) = &self.faults {
            validate_fault_plan(plan, "$.faults")?;
        }
        if let Some(supervisor) = &self.supervisor {
            validate_supervisor(supervisor, "$.supervisor")?;
        }
        if let Some(vms) = &self.vms {
            validate_vms(vms, "$.vms")?;
        }
        if let ExperimentSpec::Matrix(matrix) = &self.experiment {
            for (i, workload) in matrix.workloads.iter().enumerate() {
                if let Some(plan) = &workload.faults {
                    validate_fault_plan(plan, &format!("$.experiment.workloads[{i}].faults"))?;
                }
                if let Some(vms) = &workload.vms {
                    validate_vms(vms, &format!("$.experiment.workloads[{i}].vms"))?;
                }
            }
        }
        match &self.experiment {
            ExperimentSpec::AllocLatency { pages } => {
                if *pages == 0 {
                    return Err(ManifestError::new("$.experiment.pages", "must be positive"));
                }
                Ok(())
            }
            ExperimentSpec::WalkBreakdown => Ok(()),
            ExperimentSpec::Matrix(matrix) => self.validate_matrix(matrix),
        }
    }

    fn validate_matrix(&self, matrix: &MatrixSpec) -> Result<()> {
        if matrix.policies.is_empty() {
            return Err(ManifestError::new(
                "$.experiment.policies",
                "need at least one policy",
            ));
        }
        if matrix.workloads.is_empty() {
            return Err(ManifestError::new(
                "$.experiment.workloads",
                "need at least one workload",
            ));
        }
        for (i, workload) in matrix.workloads.iter().enumerate() {
            let ctx = format!("$.experiment.workloads[{i}]");
            workload
                .bench_id()
                .and_then(|_| workload.co_ids())
                .map_err(|e| ManifestError::new(ctx.clone(), e.message))?;
            if workload.corunner_weight == 0 {
                return Err(ManifestError::new(ctx, "corunner_weight must be positive"));
            }
            if !(1..=64).contains(&workload.threads) {
                return Err(ManifestError::new(ctx, "threads must be in 1..=64"));
            }
        }
        let (w, p, s) = (
            matrix.workloads.len(),
            matrix.policies.len(),
            self.seeds.len(),
        );
        let shape = |ok: bool, want: &str| -> Result<()> {
            if ok {
                Ok(())
            } else {
                Err(ManifestError::new(
                    "$.experiment",
                    format!(
                        "report {:?} needs {want} (got {w} workloads × {p} policies × {s} seeds)",
                        matrix.report.as_str()
                    ),
                ))
            }
        };
        match matrix.report {
            ReportKind::Runs | ReportKind::Csv | ReportKind::Pressure => Ok(()),
            ReportKind::Table1 => shape(w == 2 && p == 1, "2 workloads × 1 policy"),
            ReportKind::Table4 => shape(w == 1 && p == 2, "1 workload × 2 policies"),
            ReportKind::Fig5 | ReportKind::Fig6 | ReportKind::Fig7 | ReportKind::Specint => {
                shape(p == 2, "2 policies (baseline, contender)")
            }
            ReportKind::Sec62 => shape(p == 1, "1 policy"),
            ReportKind::Thp => {
                shape(p == 3, "3 policies (default baseline, THP, PTEMagnet)")?;
                if matrix.policies[0].name() != "default" {
                    return Err(ManifestError::new(
                        "$.experiment.policies",
                        "thp report compares against policies[0] = \"default\"",
                    ));
                }
                Ok(())
            }
            ReportKind::Variance => shape(p == 2 && s >= 2, "2 policies × several seeds"),
            ReportKind::Llc => {
                shape(p == 2, "2 policies")?;
                for (i, workload) in matrix.workloads.iter().enumerate() {
                    if workload.sim.and_then(|s| s.llc_mb).is_none() {
                        return Err(ManifestError::new(
                            format!("$.experiment.workloads[{i}].sim"),
                            "llc report needs llc_mb set on every workload",
                        ));
                    }
                }
                Ok(())
            }
            ReportKind::Hw => {
                shape(p == 2, "2 policies")?;
                for (i, workload) in matrix.workloads.iter().enumerate() {
                    let sim = workload.sim.unwrap_or_default();
                    let knobs = usize::from(sim.stlb_entries.is_some())
                        + usize::from(sim.nested_tlb_entries.is_some());
                    if knobs != 1 {
                        return Err(ManifestError::new(
                            format!("$.experiment.workloads[{i}].sim"),
                            "hw report needs exactly one of stlb_entries/nested_tlb_entries per workload",
                        ));
                    }
                }
                Ok(())
            }
            ReportKind::Colocation => {
                for (i, workload) in matrix.workloads.iter().enumerate() {
                    let vms = workload.vms.as_ref().or(self.vms.as_ref());
                    if vms.is_none_or(|v| v.count < 2) {
                        return Err(ManifestError::new(
                            format!("$.experiment.workloads[{i}].vms"),
                            "colocation report needs a vms section with count >= 2 on every workload",
                        ));
                    }
                }
                Ok(())
            }
        }
    }

    // -- serialization -----------------------------------------------------

    /// Canonical pretty JSON form (2-space indent, fixed field order, every
    /// field present, absent options as `null`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"name\": {},", json_str(&self.name));
        let _ = writeln!(out, "  \"description\": {},", json_str(&self.description));
        let _ = writeln!(out, "  \"seeds\": {},", u64_array(&self.seeds));
        let _ = writeln!(out, "  \"measure_ops\": {},", self.measure_ops);
        let _ = writeln!(
            out,
            "  \"obs\": {{\"trace\": {}, \"trace_capacity\": {}, \"epoch_ops\": {}, \"profile\": {}}},",
            self.obs.trace,
            self.obs.trace_capacity,
            opt_u64(self.obs.epoch_ops),
            self.obs.profile
        );
        let _ = writeln!(out, "  \"sim\": {},", opt_sim(&self.sim));
        let _ = writeln!(out, "  \"faults\": {},", opt_faults(&self.faults));
        let _ = writeln!(out, "  \"vms\": {},", opt_vms(&self.vms));
        let _ = writeln!(
            out,
            "  \"supervisor\": {},",
            opt_supervisor(&self.supervisor)
        );
        out.push_str("  \"experiment\": {\n");
        let _ = writeln!(out, "    \"kind\": {},", json_str(self.experiment.kind()));
        match &self.experiment {
            ExperimentSpec::AllocLatency { pages } => {
                let _ = writeln!(out, "    \"pages\": {pages}");
            }
            ExperimentSpec::WalkBreakdown => {
                // Kind only; trim the trailing comma of the kind line.
                let comma = out.rfind(',').expect("kind line written");
                out.remove(comma);
            }
            ExperimentSpec::Matrix(matrix) => {
                let _ = writeln!(out, "    \"report\": {},", json_str(matrix.report.as_str()));
                out.push_str("    \"policies\": [");
                for (i, policy) in matrix.policies.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&json_str(policy.name()));
                }
                out.push_str("],\n");
                out.push_str("    \"workloads\": [\n");
                for (i, workload) in matrix.workloads.iter().enumerate() {
                    workload_json(&mut out, workload);
                    out.push_str(if i + 1 < matrix.workloads.len() {
                        ",\n"
                    } else {
                        "\n"
                    });
                }
                out.push_str("    ]\n");
            }
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parses a manifest from a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`ManifestError`] on malformed JSON or a document of the
    /// wrong shape. [`validate`](Self::validate) is *not* implied.
    pub fn from_json(input: &str) -> Result<Self> {
        let doc = json::parse(input)
            .map_err(|e| ManifestError::new("$", format!("malformed JSON: {e}")))?;
        let obs = {
            let node = field(&doc, "$", "obs")?;
            ObsConfig {
                trace: get_bool(node, "$.obs", "trace")?,
                trace_capacity: {
                    let v = get_u64(node, "$.obs", "trace_capacity")?;
                    usize::try_from(v).map_err(|_| {
                        ManifestError::new(
                            "$.obs.trace_capacity",
                            format!("value {v} exceeds the platform limit"),
                        )
                    })?
                },
                epoch_ops: get_opt_u64(node, "$.obs", "epoch_ops")?,
                profile: get_bool(node, "$.obs", "profile")?,
            }
        };
        let experiment = {
            let node = field(&doc, "$", "experiment")?;
            let kind = get_str(node, "$.experiment", "kind")?;
            match kind.as_str() {
                "alloc-latency" => ExperimentSpec::AllocLatency {
                    pages: get_u64(node, "$.experiment", "pages")?,
                },
                "walk-breakdown" => ExperimentSpec::WalkBreakdown,
                "matrix" => {
                    let report_name = get_str(node, "$.experiment", "report")?;
                    let report = ReportKind::from_str_name(&report_name).ok_or_else(|| {
                        ManifestError::new(
                            "$.experiment.report",
                            format!("unknown report kind {report_name:?}"),
                        )
                    })?;
                    let policies = get_arr(node, "$.experiment", "policies")?
                        .iter()
                        .enumerate()
                        .map(|(i, p)| {
                            p.as_str().map(PolicySpec::new).ok_or_else(|| {
                                ManifestError::new(
                                    format!("$.experiment.policies[{i}]"),
                                    "expected a policy-name string",
                                )
                            })
                        })
                        .collect::<Result<Vec<_>>>()?;
                    let workloads = get_arr(node, "$.experiment", "workloads")?
                        .iter()
                        .enumerate()
                        .map(|(i, w)| workload_from_json(w, i))
                        .collect::<Result<Vec<_>>>()?;
                    ExperimentSpec::Matrix(MatrixSpec {
                        report,
                        policies,
                        workloads,
                    })
                }
                other => {
                    return Err(ManifestError::new(
                        "$.experiment.kind",
                        format!("unknown experiment kind {other:?}"),
                    ))
                }
            }
        };
        Ok(Self {
            name: get_str(&doc, "$", "name")?,
            description: get_str(&doc, "$", "description")?,
            seeds: get_arr(&doc, "$", "seeds")?
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    s.as_u64().ok_or_else(|| {
                        ManifestError::new(format!("$.seeds[{i}]"), "expected an unsigned integer")
                    })
                })
                .collect::<Result<Vec<_>>>()?,
            measure_ops: get_u64(&doc, "$", "measure_ops")?,
            obs,
            sim: get_opt(&doc, "$", "sim", sim_from_json)?,
            faults: get_opt(&doc, "$", "faults", fault_plan_from_json)?,
            vms: get_opt(&doc, "$", "vms", vms_from_json)?,
            supervisor: get_opt(&doc, "$", "supervisor", supervisor_from_json)?,
            experiment,
        })
    }
}

/// Semantic checks on a supervisor spec: retry counts are bounded and
/// budgets, when set, are positive.
fn validate_supervisor(spec: &SupervisorSpec, ctx: &str) -> Result<()> {
    if spec.retries > SupervisorSpec::MAX_RETRIES {
        return Err(ManifestError::new(
            format!("{ctx}.retries"),
            format!("at most {} retries", SupervisorSpec::MAX_RETRIES),
        ));
    }
    if spec.max_cell_ops == Some(0) {
        return Err(ManifestError::new(
            format!("{ctx}.max_cell_ops"),
            "budget must be positive (or null to disable)",
        ));
    }
    if spec.soft_wall_ms == Some(0) {
        return Err(ManifestError::new(
            format!("{ctx}.soft_wall_ms"),
            "budget must be positive (or null to disable)",
        ));
    }
    Ok(())
}

/// Semantic checks on a multi-tenant host shape: the VM count and
/// overcommit ratio are bounded, churn periods are positive, churn batches
/// fit the fleet, and the balloon watermark is a meaningful fraction.
fn validate_vms(spec: &VmsSpec, ctx: &str) -> Result<()> {
    if spec.count == 0 || spec.count > VmsSpec::MAX_VMS {
        return Err(ManifestError::new(
            format!("{ctx}.count"),
            format!("need 1..={} VMs", VmsSpec::MAX_VMS),
        ));
    }
    if !spec.overcommit.is_finite()
        || spec.overcommit < 1.0
        || spec.overcommit > VmsSpec::MAX_OVERCOMMIT
    {
        return Err(ManifestError::new(
            format!("{ctx}.overcommit"),
            format!("must be in [1, {}]", VmsSpec::MAX_OVERCOMMIT),
        ));
    }
    if spec.churn_period_ops == Some(0) {
        return Err(ManifestError::new(
            format!("{ctx}.churn_period_ops"),
            "period must be positive (or null to disable)",
        ));
    }
    if spec.churn_period_ops.is_some() {
        if spec.count < 2 {
            return Err(ManifestError::new(
                format!("{ctx}.churn_period_ops"),
                "churn needs at least 2 VMs",
            ));
        }
        if spec.churn_kills == 0 || spec.churn_kills >= spec.count {
            return Err(ManifestError::new(
                format!("{ctx}.churn_kills"),
                "must kill between 1 and count-1 VMs per churn event",
            ));
        }
    }
    if let Some(watermark) = spec.balloon_watermark {
        if !watermark.is_finite() || watermark <= 0.0 || watermark >= 1.0 {
            return Err(ManifestError::new(
                format!("{ctx}.balloon_watermark"),
                "must be a free-frame fraction in (0, 1)",
            ));
        }
    }
    Ok(())
}

/// Semantic checks on a fault plan: rates are probabilities, periods are
/// positive, the shock order is a buddy order, and the reclaim-daemon
/// watermarks satisfy `0 ≤ threshold ≤ restore_to ≤ 1` (the constructor
/// invariant of `ptemagnet::ReclaimDaemon`, which plain deserialization
/// would bypass).
fn validate_fault_plan(plan: &FaultPlan, ctx: &str) -> Result<()> {
    let rate = |name: &str, v: f64| -> Result<()> {
        if v.is_finite() && (0.0..=1.0).contains(&v) {
            Ok(())
        } else {
            Err(ManifestError::new(
                format!("{ctx}.{name}"),
                "must be a probability in [0, 1]",
            ))
        }
    };
    rate("chunk_fail_rate", plan.chunk_fail_rate)?;
    rate("oom_rate", plan.oom_rate)?;
    if plan.frag_shock_order > vmsim_os::MAX_ORDER {
        return Err(ManifestError::new(
            format!("{ctx}.frag_shock_order"),
            format!("must be a buddy order in 0..={}", vmsim_os::MAX_ORDER),
        ));
    }
    for (name, every) in [
        ("frag_shock_every", plan.frag_shock_every),
        ("reclaim_storm_every", plan.reclaim_storm_every),
        ("swap_out_every", plan.swap_out_every),
    ] {
        if every == Some(0) {
            return Err(ManifestError::new(
                format!("{ctx}.{name}"),
                "period must be positive (or null to disable)",
            ));
        }
    }
    if let Some(threshold) = plan.daemon_threshold {
        rate("daemon_threshold", threshold)?;
        if let Some(restore_to) = plan.daemon_restore_to {
            rate("daemon_restore_to", restore_to)?;
            if restore_to < threshold {
                return Err(ManifestError::new(
                    format!("{ctx}.daemon_restore_to"),
                    "needs 0 <= daemon_threshold <= daemon_restore_to <= 1",
                ));
            }
        }
    } else if plan.daemon_restore_to.is_some() {
        return Err(ManifestError::new(
            format!("{ctx}.daemon_restore_to"),
            "requires daemon_threshold to be set",
        ));
    }
    Ok(())
}

// -- JSON helpers ----------------------------------------------------------

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    json::write_str(&mut out, s);
    out
}

fn u64_array(values: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

fn opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |n| n.to_string())
}

fn opt_usize(v: Option<usize>) -> String {
    v.map_or_else(|| "null".to_string(), |n| n.to_string())
}

fn opt_str(v: &Option<String>) -> String {
    v.as_deref().map_or_else(|| "null".to_string(), json_str)
}

fn sim_json(sim: &SimConfig) -> String {
    let cost = sim.cost.map_or_else(
        || "null".to_string(),
        |c| {
            format!(
                "{{\"guest_fault_cycles\": {}, \"buddy_call_cycles\": {}, \"part_lookup_cycles\": {}, \
                 \"host_fault_cycles\": {}, \"huge_fault_extra_cycles\": {}, \"work_cycles_per_access\": {}}}",
                c.guest_fault_cycles,
                c.buddy_call_cycles,
                c.part_lookup_cycles,
                c.host_fault_cycles,
                c.huge_fault_extra_cycles,
                c.work_cycles_per_access
            )
        },
    );
    format!(
        "{{\"guest_mb\": {}, \"cores\": {}, \"llc_mb\": {}, \"stlb_entries\": {}, \"nested_tlb_entries\": {}, \"cost\": {}}}",
        opt_u64(sim.guest_mb),
        opt_usize(sim.cores),
        opt_u64(sim.llc_mb),
        opt_usize(sim.stlb_entries),
        opt_usize(sim.nested_tlb_entries),
        cost
    )
}

fn opt_sim(sim: &Option<SimConfig>) -> String {
    sim.as_ref().map_or_else(|| "null".to_string(), sim_json)
}

fn opt_f64(v: Option<f64>) -> String {
    v.map_or_else(
        || "null".to_string(),
        |f| {
            let mut out = String::new();
            json::write_f64(&mut out, f);
            out
        },
    )
}

fn fault_plan_json(plan: &FaultPlan) -> String {
    format!(
        "{{\"seed\": {}, \"chunk_fail_rate\": {}, \"oom_rate\": {}, \"frag_shock_every\": {}, \
         \"frag_shock_order\": {}, \"reclaim_storm_every\": {}, \"reclaim_storm_frames\": {}, \
         \"swap_out_every\": {}, \"daemon_threshold\": {}, \"daemon_restore_to\": {}}}",
        plan.seed,
        opt_f64(Some(plan.chunk_fail_rate)),
        opt_f64(Some(plan.oom_rate)),
        opt_u64(plan.frag_shock_every),
        plan.frag_shock_order,
        opt_u64(plan.reclaim_storm_every),
        plan.reclaim_storm_frames,
        opt_u64(plan.swap_out_every),
        opt_f64(plan.daemon_threshold),
        opt_f64(plan.daemon_restore_to),
    )
}

fn opt_faults(faults: &Option<FaultPlan>) -> String {
    faults
        .as_ref()
        .map_or_else(|| "null".to_string(), fault_plan_json)
}

/// Every key a `"faults"` object may carry; anything else is an unknown
/// fault kind and rejected loudly rather than silently ignored.
const FAULT_PLAN_KEYS: [&str; 10] = [
    "seed",
    "chunk_fail_rate",
    "oom_rate",
    "frag_shock_every",
    "frag_shock_order",
    "reclaim_storm_every",
    "reclaim_storm_frames",
    "swap_out_every",
    "daemon_threshold",
    "daemon_restore_to",
];

fn fault_plan_from_json(node: &Json, ctx: &str) -> Result<FaultPlan> {
    let Json::Obj(fields) = node else {
        return Err(ManifestError::new(ctx, "expected a fault-plan object"));
    };
    for (key, _) in fields {
        if !FAULT_PLAN_KEYS.contains(&key.as_str()) {
            return Err(ManifestError::new(
                ctx,
                format!("unknown fault kind {key:?}"),
            ));
        }
    }
    Ok(FaultPlan {
        seed: get_u64(node, ctx, "seed")?,
        chunk_fail_rate: get_f64(node, ctx, "chunk_fail_rate")?,
        oom_rate: get_f64(node, ctx, "oom_rate")?,
        frag_shock_every: get_opt_u64(node, ctx, "frag_shock_every")?,
        frag_shock_order: get_u32(node, ctx, "frag_shock_order")?,
        reclaim_storm_every: get_opt_u64(node, ctx, "reclaim_storm_every")?,
        reclaim_storm_frames: get_u64(node, ctx, "reclaim_storm_frames")?,
        swap_out_every: get_opt_u64(node, ctx, "swap_out_every")?,
        daemon_threshold: get_opt_f64(node, ctx, "daemon_threshold")?,
        daemon_restore_to: get_opt_f64(node, ctx, "daemon_restore_to")?,
    })
}

fn vms_json(spec: &VmsSpec) -> String {
    format!(
        "{{\"count\": {}, \"overcommit\": {}, \"churn_period_ops\": {}, \"churn_kills\": {}, \"balloon_watermark\": {}}}",
        spec.count,
        opt_f64(Some(spec.overcommit)),
        opt_u64(spec.churn_period_ops),
        spec.churn_kills,
        opt_f64(spec.balloon_watermark),
    )
}

fn opt_vms(spec: &Option<VmsSpec>) -> String {
    spec.as_ref().map_or_else(|| "null".to_string(), vms_json)
}

/// Every key a `"vms"` object may carry; anything else is rejected loudly
/// rather than silently ignored.
const VMS_KEYS: [&str; 5] = [
    "count",
    "overcommit",
    "churn_period_ops",
    "churn_kills",
    "balloon_watermark",
];

fn vms_from_json(node: &Json, ctx: &str) -> Result<VmsSpec> {
    let Json::Obj(fields) = node else {
        return Err(ManifestError::new(ctx, "expected a vms object"));
    };
    for (key, _) in fields {
        if !VMS_KEYS.contains(&key.as_str()) {
            return Err(ManifestError::new(ctx, format!("unknown vms key {key:?}")));
        }
    }
    Ok(VmsSpec {
        count: get_u32(node, ctx, "count")?,
        overcommit: get_f64(node, ctx, "overcommit")?,
        churn_period_ops: get_opt_u64(node, ctx, "churn_period_ops")?,
        churn_kills: get_u32(node, ctx, "churn_kills")?,
        balloon_watermark: get_opt_f64(node, ctx, "balloon_watermark")?,
    })
}

fn supervisor_json(spec: &SupervisorSpec) -> String {
    format!(
        "{{\"retries\": {}, \"seed_stride\": {}, \"max_cell_ops\": {}, \"soft_wall_ms\": {}}}",
        spec.retries,
        spec.seed_stride,
        opt_u64(spec.max_cell_ops),
        opt_u64(spec.soft_wall_ms),
    )
}

fn opt_supervisor(spec: &Option<SupervisorSpec>) -> String {
    spec.as_ref()
        .map_or_else(|| "null".to_string(), supervisor_json)
}

/// Every key a `"supervisor"` object may carry; anything else is rejected
/// loudly rather than silently ignored.
const SUPERVISOR_KEYS: [&str; 4] = ["retries", "seed_stride", "max_cell_ops", "soft_wall_ms"];

fn supervisor_from_json(node: &Json, ctx: &str) -> Result<SupervisorSpec> {
    let Json::Obj(fields) = node else {
        return Err(ManifestError::new(ctx, "expected a supervisor object"));
    };
    for (key, _) in fields {
        if !SUPERVISOR_KEYS.contains(&key.as_str()) {
            return Err(ManifestError::new(
                ctx,
                format!("unknown supervisor key {key:?}"),
            ));
        }
    }
    Ok(SupervisorSpec {
        retries: get_u32(node, ctx, "retries")?,
        seed_stride: get_u64(node, ctx, "seed_stride")?,
        max_cell_ops: get_opt_u64(node, ctx, "max_cell_ops")?,
        soft_wall_ms: get_opt_u64(node, ctx, "soft_wall_ms")?,
    })
}

fn workload_json(out: &mut String, w: &WorkloadSpec) {
    out.push_str("      {\n");
    let _ = writeln!(out, "        \"label\": {},", opt_str(&w.label));
    let _ = writeln!(out, "        \"benchmark\": {},", json_str(&w.benchmark));
    out.push_str("        \"corunners\": [");
    for (i, co) in w.corunners.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&json_str(co));
    }
    out.push_str("],\n");
    let _ = writeln!(out, "        \"corunner_weight\": {},", w.corunner_weight);
    let _ = writeln!(out, "        \"threads\": {},", w.threads);
    let _ = writeln!(
        out,
        "        \"stop_corunners_after_init\": {},",
        w.stop_corunners_after_init
    );
    let _ = writeln!(
        out,
        "        \"prefragment_run\": {},",
        opt_u64(w.prefragment_run)
    );
    let _ = writeln!(out, "        \"sim\": {},", opt_sim(&w.sim));
    let _ = writeln!(out, "        \"faults\": {},", opt_faults(&w.faults));
    let _ = writeln!(out, "        \"vms\": {}", opt_vms(&w.vms));
    out.push_str("      }");
}

/// Every key is required: a missing one is a typed error naming its full
/// path (`$.experiment.workloads[0].threads: missing field`).
fn field<'a>(node: &'a Json, ctx: &str, key: &str) -> Result<&'a Json> {
    node.get(key)
        .ok_or_else(|| ManifestError::new(format!("{ctx}.{key}"), "missing field"))
}

/// A required key whose `null` means "absent"; any other value is parsed
/// by `parse` with the key's full path as context.
fn get_opt<T>(
    node: &Json,
    ctx: &str,
    key: &str,
    parse: impl FnOnce(&Json, &str) -> Result<T>,
) -> Result<Option<T>> {
    match field(node, ctx, key)? {
        Json::Null => Ok(None),
        v => parse(v, &format!("{ctx}.{key}")).map(Some),
    }
}

fn get_str(node: &Json, ctx: &str, key: &str) -> Result<String> {
    field(node, ctx, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| ManifestError::new(format!("{ctx}.{key}"), "expected a string"))
}

fn get_u64(node: &Json, ctx: &str, key: &str) -> Result<u64> {
    field(node, ctx, key)?
        .as_u64()
        .ok_or_else(|| ManifestError::new(format!("{ctx}.{key}"), "expected an unsigned integer"))
}

/// Range-checked 32-bit read: a value beyond `u32::MAX` is a validation
/// error, never a silent `as` truncation.
fn get_u32(node: &Json, ctx: &str, key: &str) -> Result<u32> {
    let v = get_u64(node, ctx, key)?;
    u32::try_from(v).map_err(|_| {
        ManifestError::new(
            format!("{ctx}.{key}"),
            format!("value {v} exceeds the 32-bit limit"),
        )
    })
}

fn get_bool(node: &Json, ctx: &str, key: &str) -> Result<bool> {
    field(node, ctx, key)?
        .as_bool()
        .ok_or_else(|| ManifestError::new(format!("{ctx}.{key}"), "expected a boolean"))
}

fn get_arr<'a>(node: &'a Json, ctx: &str, key: &str) -> Result<&'a [Json]> {
    field(node, ctx, key)?
        .as_arr()
        .ok_or_else(|| ManifestError::new(format!("{ctx}.{key}"), "expected an array"))
}

fn get_opt_u64(node: &Json, ctx: &str, key: &str) -> Result<Option<u64>> {
    match field(node, ctx, key)? {
        Json::Null => Ok(None),
        v => v.as_u64().map(Some).ok_or_else(|| {
            ManifestError::new(
                format!("{ctx}.{key}"),
                "expected an unsigned integer or null",
            )
        }),
    }
}

fn get_opt_usize(node: &Json, ctx: &str, key: &str) -> Result<Option<usize>> {
    Ok(get_opt_u64(node, ctx, key)?.map(|n| n as usize))
}

fn get_f64(node: &Json, ctx: &str, key: &str) -> Result<f64> {
    field(node, ctx, key)?
        .as_f64()
        .ok_or_else(|| ManifestError::new(format!("{ctx}.{key}"), "expected a number"))
}

fn get_opt_f64(node: &Json, ctx: &str, key: &str) -> Result<Option<f64>> {
    match field(node, ctx, key)? {
        Json::Null => Ok(None),
        v => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| ManifestError::new(format!("{ctx}.{key}"), "expected a number or null")),
    }
}

fn sim_from_json(node: &Json, ctx: &str) -> Result<SimConfig> {
    let cost = match field(node, ctx, "cost")? {
        Json::Null => None,
        c => {
            let cctx = format!("{ctx}.cost");
            Some(CostModel {
                guest_fault_cycles: get_u64(c, &cctx, "guest_fault_cycles")?,
                buddy_call_cycles: get_u64(c, &cctx, "buddy_call_cycles")?,
                part_lookup_cycles: get_u64(c, &cctx, "part_lookup_cycles")?,
                host_fault_cycles: get_u64(c, &cctx, "host_fault_cycles")?,
                huge_fault_extra_cycles: get_u64(c, &cctx, "huge_fault_extra_cycles")?,
                work_cycles_per_access: get_u64(c, &cctx, "work_cycles_per_access")?,
            })
        }
    };
    Ok(SimConfig {
        guest_mb: get_opt_u64(node, ctx, "guest_mb")?,
        cores: get_opt_usize(node, ctx, "cores")?,
        llc_mb: get_opt_u64(node, ctx, "llc_mb")?,
        stlb_entries: get_opt_usize(node, ctx, "stlb_entries")?,
        nested_tlb_entries: get_opt_usize(node, ctx, "nested_tlb_entries")?,
        cost,
    })
}

fn workload_from_json(node: &Json, index: usize) -> Result<WorkloadSpec> {
    let ctx = format!("$.experiment.workloads[{index}]");
    let label = get_opt(node, &ctx, "label", |v, path| {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| ManifestError::new(path, "expected a string"))
    })?;
    let corunners = get_arr(node, &ctx, "corunners")?
        .iter()
        .map(|c| {
            c.as_str().map(str::to_string).ok_or_else(|| {
                ManifestError::new(
                    format!("{ctx}.corunners"),
                    "expected co-runner name strings",
                )
            })
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(WorkloadSpec {
        label,
        benchmark: get_str(node, &ctx, "benchmark")?,
        corunners,
        corunner_weight: get_u32(node, &ctx, "corunner_weight")?,
        threads: get_u32(node, &ctx, "threads")?,
        stop_corunners_after_init: get_bool(node, &ctx, "stop_corunners_after_init")?,
        prefragment_run: get_opt_u64(node, &ctx, "prefragment_run")?,
        sim: get_opt(node, &ctx, "sim", sim_from_json)?,
        faults: get_opt(node, &ctx, "faults", fault_plan_from_json)?,
        vms: get_opt(node, &ctx, "vms", vms_from_json)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentManifest {
        ExperimentManifest {
            name: "sample".into(),
            description: "round-trip sample".into(),
            seeds: vec![0, 101],
            measure_ops: 12_345,
            obs: ObsConfig::enabled(500),
            sim: Some(SimConfig {
                llc_mb: Some(4),
                ..SimConfig::default()
            }),
            faults: None,
            vms: None,
            supervisor: Some(SupervisorSpec {
                retries: 2,
                seed_stride: 13,
                max_cell_ops: Some(10_000),
                soft_wall_ms: None,
            }),
            experiment: ExperimentSpec::Matrix(MatrixSpec {
                report: ReportKind::Runs,
                policies: vec!["default".into(), "granular:4".into()],
                workloads: vec![
                    WorkloadSpec::new("pagerank").with_corunners(&[CoId::Objdet], 4),
                    WorkloadSpec::new("gcc").labeled("solo gcc"),
                ],
            }),
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let m = sample();
        let json = m.to_json();
        let parsed = ExperimentManifest::from_json(&json).expect("parse");
        assert_eq!(parsed, m);
        assert_eq!(parsed.to_json(), json, "canonical form is a fixpoint");
    }

    #[test]
    fn python_escaped_astral_text_decodes_to_one_scalar() {
        // Python's `json.dumps` writes every non-BMP character as an
        // escaped surrogate pair.
        let json = sample()
            .to_json()
            .replace("round-trip sample", "fig \\ud83d\\ude00");
        let parsed = ExperimentManifest::from_json(&json).expect("parse");
        assert_eq!(parsed.description, "fig \u{1F600}");
        assert!(parsed.to_json().contains("\"fig \u{1F600}\""));
    }

    #[test]
    fn special_kinds_round_trip() {
        for experiment in [
            ExperimentSpec::AllocLatency { pages: 65_536 },
            ExperimentSpec::WalkBreakdown,
        ] {
            let m = ExperimentManifest {
                name: "special".into(),
                description: String::new(),
                seeds: vec![0],
                measure_ops: 1,
                obs: ObsConfig::disabled(),
                sim: None,
                faults: None,
                vms: None,
                supervisor: None,
                experiment,
            };
            let json = m.to_json();
            let parsed = ExperimentManifest::from_json(&json).expect("parse");
            assert_eq!(parsed, m);
            assert_eq!(parsed.to_json(), json);
        }
    }

    #[test]
    fn validation_catches_bad_shapes() {
        let mut m = sample();
        assert!(m.validate().is_ok());
        m.seeds.clear();
        assert!(m.validate().unwrap_err().context.contains("seeds"));
        m = sample();
        m.name = "bad name!".into();
        assert!(m.validate().is_err());
        m = sample();
        if let ExperimentSpec::Matrix(matrix) = &mut m.experiment {
            matrix.workloads[0].benchmark = "nonexistent".into();
        }
        assert!(m.validate().is_err());
        m = sample();
        if let ExperimentSpec::Matrix(matrix) = &mut m.experiment {
            matrix.report = ReportKind::Table4; // needs 1 workload × 2 policies × 1 seed
        }
        assert!(m.validate().is_err());
    }

    fn pressure_plan() -> FaultPlan {
        FaultPlan {
            seed: 7,
            chunk_fail_rate: 0.25,
            oom_rate: 0.01,
            frag_shock_every: Some(10_000),
            frag_shock_order: 1,
            reclaim_storm_every: Some(50_000),
            reclaim_storm_frames: 512,
            swap_out_every: None,
            daemon_threshold: Some(0.1),
            daemon_restore_to: Some(0.2),
        }
    }

    #[test]
    fn fault_plans_round_trip_at_both_levels() {
        let mut m = sample();
        m.faults = Some(pressure_plan());
        if let ExperimentSpec::Matrix(matrix) = &mut m.experiment {
            matrix.workloads[1].faults = Some(FaultPlan {
                oom_rate: 0.5,
                ..FaultPlan::none()
            });
        }
        assert!(m.validate().is_ok());
        let json = m.to_json();
        let parsed = ExperimentManifest::from_json(&json).expect("parse");
        assert_eq!(parsed, m);
        assert_eq!(parsed.to_json(), json, "canonical form is a fixpoint");
    }

    #[test]
    fn every_key_is_required_and_a_missing_one_is_named_by_path() {
        // Dropping one line of the canonical form removes one key; a
        // line-final key also takes the comma off the line before it.
        let json = sample().to_json();
        let lines: Vec<&str> = json.lines().collect();
        let mut checked = 0;
        for (i, line) in lines.iter().enumerate() {
            let trimmed = line.trim_start();
            let Some((key, _)) = trimmed.strip_prefix('"').and_then(|k| k.split_once('"')) else {
                continue;
            };
            let workload = lines[..i].iter().filter(|l| **l == "      {").count();
            let context = match line.len() - trimmed.len() {
                2 if key != "experiment" => format!("$.{key}"),
                8 => format!("$.experiment.workloads[{}].{key}", workload - 1),
                _ => continue,
            };
            let mut kept: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
            kept.remove(i);
            if !line.ends_with(',') {
                let prev = &mut kept[i - 1];
                *prev = prev.trim_end_matches(',').to_string();
            }
            let err = ExperimentManifest::from_json(&kept.join("\n")).unwrap_err();
            assert_eq!(err.to_string(), format!("{context}: missing field"));
            checked += 1;
        }
        assert_eq!(checked, 9 + 2 * 10, "every top-level and workload key");
        let no_profile = json.replace(", \"profile\": false", "");
        let err = ExperimentManifest::from_json(&no_profile).unwrap_err();
        assert_eq!(err.to_string(), "$.obs.profile: missing field");
    }

    #[test]
    fn unknown_fault_kind_is_rejected() {
        let json = sample()
            .to_json()
            .replace("  \"faults\": null,", "  \"faults\": {\"meteor\": 1},");
        let err = ExperimentManifest::from_json(&json).unwrap_err();
        assert!(err.message.contains("unknown fault kind"), "{err}");
    }

    #[test]
    fn unknown_supervisor_key_is_rejected() {
        let json = sample().to_json().replace(
            "  \"supervisor\": {\"retries\": 2,",
            "  \"supervisor\": {\"naps\": 9, \"retries\": 2,",
        );
        let err = ExperimentManifest::from_json(&json).unwrap_err();
        assert!(err.message.contains("unknown supervisor key"), "{err}");
    }

    #[test]
    fn supervisor_bounds_are_validated() {
        let mut m = sample();
        m.supervisor = Some(SupervisorSpec {
            retries: SupervisorSpec::MAX_RETRIES + 1,
            ..SupervisorSpec::default()
        });
        assert!(m.validate().unwrap_err().context.contains("retries"));
        m.supervisor = Some(SupervisorSpec {
            max_cell_ops: Some(0),
            ..SupervisorSpec::default()
        });
        assert!(m.validate().unwrap_err().context.contains("max_cell_ops"));
        m.supervisor = Some(SupervisorSpec {
            soft_wall_ms: Some(0),
            ..SupervisorSpec::default()
        });
        assert!(m.validate().unwrap_err().context.contains("soft_wall_ms"));
        m.supervisor = Some(SupervisorSpec::default());
        assert!(m.validate().is_ok());
    }

    #[test]
    fn oversized_u32_fields_are_rejected_not_truncated() {
        // 2^33 used to truncate silently through an `as u32` cast.
        let big = (1_u64 << 33).to_string();
        let json = sample().to_json().replace(
            "\"corunner_weight\": 4,",
            &format!("\"corunner_weight\": {big},"),
        );
        let err = ExperimentManifest::from_json(&json).unwrap_err();
        assert!(err.message.contains("32-bit"), "{err}");
    }

    #[test]
    fn daemon_watermarks_are_validated() {
        // Deserialization bypasses ReclaimDaemon::new's assertions, so the
        // manifest layer must enforce 0 <= threshold <= restore_to <= 1.
        let mut m = sample();
        m.faults = Some(FaultPlan {
            daemon_threshold: Some(1.5),
            ..FaultPlan::none()
        });
        assert!(m.validate().unwrap_err().context.contains("threshold"));
        m.faults = Some(FaultPlan {
            daemon_threshold: Some(0.4),
            daemon_restore_to: Some(0.2),
            ..FaultPlan::none()
        });
        assert!(m.validate().unwrap_err().context.contains("restore_to"));
        m.faults = Some(FaultPlan {
            daemon_restore_to: Some(0.2),
            ..FaultPlan::none()
        });
        assert!(m.validate().is_err(), "restore_to without threshold");
        m.faults = Some(FaultPlan {
            daemon_threshold: Some(0.1),
            daemon_restore_to: Some(0.2),
            ..FaultPlan::none()
        });
        assert!(m.validate().is_ok());
    }

    #[test]
    fn fault_rates_and_periods_are_validated() {
        let mut m = sample();
        m.faults = Some(FaultPlan {
            chunk_fail_rate: -0.1,
            ..FaultPlan::none()
        });
        assert!(m.validate().is_err());
        m.faults = Some(FaultPlan {
            oom_rate: f64::NAN,
            ..FaultPlan::none()
        });
        assert!(m.validate().is_err());
        m.faults = None;
        if let ExperimentSpec::Matrix(matrix) = &mut m.experiment {
            matrix.workloads[0].faults = Some(FaultPlan {
                frag_shock_every: Some(0),
                ..FaultPlan::none()
            });
        }
        let err = m.validate().unwrap_err();
        assert!(err.context.contains("workloads[0]"), "{err}");
    }

    fn churny_vms() -> VmsSpec {
        VmsSpec {
            count: 8,
            overcommit: 1.5,
            churn_period_ops: Some(2_000),
            churn_kills: 2,
            balloon_watermark: Some(0.1),
        }
    }

    #[test]
    fn vms_round_trips_at_both_levels() {
        let mut m = sample();
        m.vms = Some(churny_vms());
        if let ExperimentSpec::Matrix(matrix) = &mut m.experiment {
            matrix.workloads[1].vms = Some(VmsSpec::colocated(4));
        }
        assert!(m.validate().is_ok());
        let json = m.to_json();
        let parsed = ExperimentManifest::from_json(&json).expect("parse");
        assert_eq!(parsed, m);
        assert_eq!(parsed.to_json(), json, "canonical form is a fixpoint");
    }

    #[test]
    fn unknown_vms_key_is_rejected() {
        let json = sample().to_json().replace(
            "  \"vms\": null,",
            "  \"vms\": {\"count\": 2, \"overcommit\": 1.0, \"churn_period_ops\": null, \
             \"churn_kills\": 1, \"balloon_watermark\": null, \"flavour\": \"grape\"},",
        );
        let err = ExperimentManifest::from_json(&json).unwrap_err();
        assert!(err.message.contains("unknown vms key"), "{err}");
    }

    #[test]
    fn vms_bounds_are_validated() {
        let check = |mutate: fn(&mut VmsSpec), needle: &str| {
            let mut m = sample();
            let mut vms = churny_vms();
            mutate(&mut vms);
            m.vms = Some(vms);
            let err = m.validate().unwrap_err();
            assert!(err.context.contains(needle), "{err}");
        };
        check(|v| v.count = 0, "count");
        check(|v| v.count = VmsSpec::MAX_VMS + 1, "count");
        check(|v| v.overcommit = 0.5, "overcommit");
        check(|v| v.overcommit = 9.0, "overcommit");
        check(|v| v.overcommit = f64::NAN, "overcommit");
        check(|v| v.churn_period_ops = Some(0), "churn_period_ops");
        check(|v| v.count = 1, "churn_period_ops");
        check(|v| v.churn_kills = 0, "churn_kills");
        check(|v| v.churn_kills = 8, "churn_kills");
        check(|v| v.balloon_watermark = Some(0.0), "balloon_watermark");
        check(|v| v.balloon_watermark = Some(1.0), "balloon_watermark");

        let mut m = sample();
        m.vms = Some(churny_vms());
        assert!(m.validate().is_ok());
        // A workload-level spec is validated in place too.
        if let ExperimentSpec::Matrix(matrix) = &mut m.experiment {
            matrix.workloads[0].vms = Some(VmsSpec {
                overcommit: 20.0,
                ..VmsSpec::default()
            });
        }
        let err = m.validate().unwrap_err();
        assert!(err.context.contains("workloads[0].vms"), "{err}");
    }

    #[test]
    fn inactive_vms_specs_are_detected() {
        assert!(!VmsSpec::default().is_active());
        assert!(!VmsSpec::colocated(1).is_active());
        assert!(VmsSpec::colocated(2).is_active());
        assert!(VmsSpec {
            overcommit: 1.5,
            ..VmsSpec::default()
        }
        .is_active());
        assert!(VmsSpec {
            churn_period_ops: Some(100),
            count: 2,
            ..VmsSpec::default()
        }
        .is_active());
        assert!(VmsSpec {
            balloon_watermark: Some(0.2),
            ..VmsSpec::default()
        }
        .is_active());
    }

    #[test]
    fn colocation_report_needs_multi_vm_workloads() {
        let mut m = sample();
        if let ExperimentSpec::Matrix(matrix) = &mut m.experiment {
            matrix.report = ReportKind::Colocation;
        }
        let err = m.validate().unwrap_err();
        assert!(err.message.contains("count >= 2"), "{err}");
        // A manifest-level spec covers every workload.
        m.vms = Some(VmsSpec::colocated(4));
        assert!(m.validate().is_ok());
        // A workload-level single-guest override breaks it again.
        if let ExperimentSpec::Matrix(matrix) = &mut m.experiment {
            matrix.workloads[0].vms = Some(VmsSpec::colocated(1));
        }
        assert!(m.validate().is_err());
    }

    #[test]
    fn sim_overlay_and_machine_config() {
        let base = SimConfig {
            guest_mb: Some(512),
            ..SimConfig::default()
        };
        let over = SimConfig {
            llc_mb: Some(2),
            ..SimConfig::default()
        };
        let merged = base.overlaid(&over);
        assert_eq!(merged.guest_mb, Some(512));
        assert_eq!(merged.llc_mb, Some(2));
        let mc = merged.to_machine_config(2);
        assert_eq!(mc.guest_frames, 512 * 256);
        assert_eq!(mc.hierarchy.llc.capacity(), 2 * 1024 * 1024);
        assert!(SimConfig::default().is_vanilla());
        assert!(!merged.is_vanilla());
    }
}
