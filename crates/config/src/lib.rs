//! Typed, serializable configuration for the PTEMagnet reproduction.
//!
//! This crate is the single place where "what to run" is described and
//! parsed:
//!
//! * [`manifest`] — [`ExperimentManifest`] and its parts
//!   ([`SimConfig`], [`WorkloadSpec`], [`PolicySpec`]): the full evaluation
//!   matrix (policies × workloads × seeds × observability) as data, JSON
//!   round-trippable through the `vmsim-obs` parser;
//! * [`builtin`] — the checked-in `manifests/*.json` files, compiled in
//!   and parsed on demand (one manifest per table/figure of the paper);
//! * [`env`](mod@env) — the canonical environment-override parser
//!   (`VMSIM_OPS`, `VMSIM_THREADS`, `VMSIM_CHAOS_CELL`, ...), strict by
//!   default; an unknown `VMSIM_*` variable is an error;
//! * [`obs`] — [`ObsConfig`], the per-run observability knobs carried by
//!   every manifest (its `obs` block is their only source).
//!
//! Policy names are resolved to allocators by the registry in
//! `ptemagnet::registry`; the driver in `vmsim-sim` executes manifests; the
//! `vmsim` CLI fronts the whole thing.

pub mod builtin;
pub mod env;
pub mod manifest;
pub mod obs;

pub use env::{ChaosPlan, EnvError, ServeBind};
pub use manifest::{
    ExperimentManifest, ExperimentSpec, ManifestError, MatrixSpec, PolicySpec, ReportKind,
    SimConfig, SupervisorSpec, VmsSpec, WorkloadSpec,
};
pub use obs::ObsConfig;
pub use vmsim_types::FaultPlan;
