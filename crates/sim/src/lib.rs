//! Colocation simulation engine and experiment harness for the PTEMagnet
//! (ASPLOS 2021) evaluation.
//!
//! The crate turns the substrate (machine + workloads) into the paper's
//! experiments:
//!
//! * [`engine`] — the one app scheduler: runs a set of workloads in VM
//!   slots of one machine, interleaving their operations (each app pinned
//!   to its own core, as the paper pins threads), and accumulates per-app
//!   cycle counts;
//! * `fleet` — the multi-tenant rules and steps: with a `vms` section
//!   ([`Scenario::vms`]), N guest VMs share one overcommitted host, VM 0
//!   runs the measured apps and every other VM a neighbour instance, under
//!   VM churn and balloon pressure;
//! * [`scenario`] — declarative description of one run (benchmark,
//!   co-runners, allocator, co-runner stop protocol, measurement length,
//!   tenancy) and the one run loop that executes it, single guest or
//!   fleet;
//! * [`driver`] — the manifest execution engine: expands a
//!   `vmsim_config::ExperimentManifest` into scenario runs on the worker
//!   pool and assembles the typed, paper-shaped outcome. Every experiment
//!   goes through it: `vmsim run manifests/<name>.json` is the one way to
//!   regenerate a table or figure of the paper;
//! * [`obs`] — scenario-level observability: the [`ObsConfig`] knobs
//!   (re-exported from `vmsim-config`; `VMSIM_TRACE`, `VMSIM_EPOCH_OPS`)
//!   and the [`ObservedRun`] wrapper carrying snapshot, epoch time series,
//!   and event trace next to the untouched [`RunMetrics`];
//! * [`parallel`] — deterministic worker pool fanning independent runs
//!   (seeds, benchmarks) across cores; results come back in job order, so
//!   output is bit-identical to serial. Thread count: `VMSIM_THREADS`;
//! * [`report`] — the paper-shaped result types (Table 1/4, figure
//!   sweeps, §6.2/§6.4, THP, hardware sensitivity) and their paper-style
//!   text rendering.
//!
//! # Examples
//!
//! ```no_run
//! use vmsim_sim::{Scenario, AllocatorKind};
//! use vmsim_workloads::{BenchId, CoId};
//!
//! let metrics = Scenario::new(BenchId::Pagerank)
//!     .corunners(&[CoId::Objdet])
//!     .allocator(AllocatorKind::PteMagnet)
//!     .measure_ops(200_000)
//!     .run();
//! println!("host-PT fragmentation: {:.2}", metrics.host_frag);
//! ```
//!
//! Manifest-driven (the canonical path):
//!
//! ```no_run
//! let manifest = vmsim_config::builtin::by_name("table4").expect("checked-in manifest");
//! let run = vmsim_sim::driver::run_manifest(&manifest).expect("valid manifest");
//! print!("{}", run.report());
//! ```

pub mod artifacts;
pub mod driver;
pub mod engine;
mod fleet;
pub mod journal;
pub mod obs;
pub mod parallel;
pub mod perf;
pub mod progress;
pub mod report;
pub mod scenario;
pub mod serve;
pub mod stats;

pub use driver::{
    run_manifest, run_supervised, CellData, CellRun, ColocationRow, DriverError, ManifestRun,
    Outcome, PressureRow, Supervision, Supervisor, VarianceStudy,
};
pub use engine::Colocation;
pub use journal::{Journal, JournalEntry};
pub use obs::{ObsConfig, ObservedRun};
pub use parallel::Parallelism;
pub use progress::{Progress, ProgressStats, Pulse, DEFAULT_HEARTBEAT_OPS};
pub use report::{
    pct_change, AllocLatency, BenchPair, FigureSweep, HwSensitivityRow, ReservedUnused, Table1,
    Table4, ThpRow, ThpStudy,
};
pub use scenario::{AllocatorKind, CellBudget, RunMetrics, Scenario};
pub use serve::{ServeConfig, ServeStats, Server};
pub use stats::{Replication, Summary};
