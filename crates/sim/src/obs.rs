//! Scenario-level observability: the observed-run wrapper.
//!
//! [`RunMetrics`] stays exactly what it always was — the
//! end-of-run aggregates whose bit-identity the determinism tests assert.
//! Everything the observability layer adds (final registry snapshot, epoch
//! time series, event trace, merged latency histograms) lives alongside it
//! in [`ObservedRun`], so enabling observability can never change a metric.
//!
//! The configuration type moved to `vmsim-config` so manifests can carry
//! it; the strict environment knobs (`VMSIM_TRACE`, `VMSIM_EPOCH_OPS`) are
//! parsed by `vmsim_config::env`, the single parsing point.

use vmsim_cache::Histogram;
use vmsim_obs::{Event, PhaseProfile, Snapshot, TimeSeries};

pub use vmsim_config::ObsConfig;

use crate::scenario::RunMetrics;

/// A scenario result plus everything the observability layer captured.
#[derive(Clone, Debug)]
pub struct ObservedRun {
    /// The classic end-of-run aggregates (bit-identical to an unobserved
    /// run of the same scenario).
    pub metrics: RunMetrics,
    /// Final registry snapshot covering every stats struct in the machine.
    pub snapshot: Snapshot,
    /// Epoch time series over the measured phase (always holds at least the
    /// phase-B start and end snapshots when epoch sampling is enabled;
    /// empty otherwise).
    pub series: TimeSeries,
    /// Trace events retained by the ring buffer (empty when tracing is
    /// disabled).
    pub events: Vec<Event>,
    /// Events evicted from the ring because it was full.
    pub trace_dropped: u64,
    /// Nested-walk latency distribution, merged across cores, for the
    /// measured phase.
    pub walk_latency: Histogram,
    /// Fault-service latency distribution, merged across cores, for the
    /// measured phase.
    pub fault_latency: Histogram,
    /// Phase-attributed self-profile of the measured phase (present when
    /// [`ObsConfig::profile`] is set; wall numbers are nondeterministic,
    /// the cycle ledger is deterministic).
    pub profile: Option<PhaseProfile>,
    /// Whether a supervisor budget stopped the measured phase early; when
    /// set, [`RunMetrics::measure_ops`] records the ops actually executed.
    pub truncated: bool,
}

impl ObservedRun {
    /// Trace events as JSON Lines (one object per line).
    pub fn events_jsonl(&self) -> String {
        vmsim_obs::trace::to_jsonl(&self.events)
    }
}
