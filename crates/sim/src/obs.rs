//! Scenario-level observability: the observed-run wrapper.
//!
//! [`RunMetrics`] stays exactly what it always was — the
//! end-of-run aggregates whose bit-identity the determinism tests assert.
//! Everything the observability layer adds (final registry snapshot, epoch
//! time series, event trace, memo and per-level cache counters, phase
//! profile) lives alongside it in [`ObservedRun`], so enabling
//! observability can never change a metric.
//!
//! The configuration type moved to `vmsim-config` so manifests can carry
//! it; a manifest's `obs` block is its only source.

use vmsim_cache::MemCounters;
use vmsim_obs::{Event, PhaseProfile, Snapshot, TimeSeries};
use vmsim_os::MemoStats;

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
    /// Memo-layer counter deltas over the measured phase, machine-wide.
    pub memo: MemoStats,
    /// The primary app's core counters over the measured phase: the
    /// per-level hit sources of its data and page-walk accesses. Boxed
    /// because they are 624 bytes: inline, they pushed a served job's
    /// boxed cells out of glibc's small size classes, and `vmsim serve`'s
    /// peak RSS rose by about a sixth.
    pub counters: Box<MemCounters>,
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
