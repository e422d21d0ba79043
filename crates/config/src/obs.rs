//! Observability configuration for a run.
//!
//! Moved here from `vmsim-sim` so the manifest layer can carry it: a run's
//! observability comes only from its manifest's `obs` block.

/// What a scenario run should observe beyond its end-of-run metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsConfig {
    /// Install an event tracer on the machine.
    pub trace: bool,
    /// Ring capacity (events retained) when tracing.
    pub trace_capacity: usize,
    /// Capture a registry snapshot every this many machine ops during the
    /// measured phase (`None` = endpoints only).
    pub epoch_ops: Option<u64>,
    /// Install the phase profiler on the machine (profile JSON + folded
    /// stacks artifacts; bit-invisible to `RunMetrics`).
    pub profile: bool,
}

impl ObsConfig {
    /// Observability off: the exact legacy execution path.
    pub fn disabled() -> Self {
        Self {
            trace: false,
            trace_capacity: vmsim_obs::DEFAULT_CAPACITY,
            epoch_ops: None,
            profile: false,
        }
    }

    /// Tracing on (default ring capacity) and epoch sampling every
    /// `epoch_ops` machine ops.
    pub fn enabled(epoch_ops: u64) -> Self {
        Self {
            trace: true,
            trace_capacity: vmsim_obs::DEFAULT_CAPACITY,
            epoch_ops: Some(epoch_ops.max(1)),
            profile: false,
        }
    }

    /// Profiling on, everything else off: the cheapest observed config.
    pub fn profiled() -> Self {
        Self {
            profile: true,
            ..Self::disabled()
        }
    }

    /// Whether this configuration observes anything at all.
    pub fn is_enabled(&self) -> bool {
        self.trace || self.epoch_ops.is_some() || self.profile
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert!(!ObsConfig::disabled().is_enabled());
        let on = ObsConfig::enabled(500);
        assert!(on.trace && on.epoch_ops == Some(500));
        assert_eq!(ObsConfig::enabled(0).epoch_ops, Some(1));
        assert_eq!(ObsConfig::default(), ObsConfig::disabled());
        let prof = ObsConfig::profiled();
        assert!(prof.is_enabled() && prof.profile && !prof.trace);
    }
}
