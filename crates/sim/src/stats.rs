//! Multi-seed replication statistics.
//!
//! The paper averages every measurement over 40 runs and reports a standard
//! deviation of execution time under 2 % (§6.1). The simulator is
//! deterministic per seed, so seeds play the role of runs: this module
//! summarizes one scenario's runs across seeds (the manifest driver fans
//! the seeds out on the worker pool).

use serde::{Deserialize, Serialize};

use crate::scenario::RunMetrics;

/// Summary statistics of one metric across replicated runs.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of replications.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub stddev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Summary {
    /// Summarizes a set of observations.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "need at least one observation");
        let n = values.len();
        // Single pass for sum/min/max; the variance pass stays separate
        // because the two-pass form is the numerically stable one.
        let (sum, min, max) = values.iter().fold(
            (0.0f64, f64::INFINITY, f64::NEG_INFINITY),
            |(sum, min, max), &v| (sum + v, min.min(v), max.max(v)),
        );
        let mean = sum / n as f64;
        let var = if n < 2 {
            0.0
        } else {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        };
        Self {
            n,
            mean,
            stddev: var.sqrt(),
            min,
            max,
        }
    }

    /// Coefficient of variation (stddev / mean); the paper's "standard
    /// deviation of execution time ≤ 2 %" is this quantity.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.stddev / self.mean
        }
    }
}

impl core::fmt::Display for Summary {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "mean {:.4} ± {:.4} (cv {:.2}%, n={})",
            self.mean,
            self.stddev,
            self.cv() * 100.0,
            self.n
        )
    }
}

/// Replicated run results across seeds.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Replication {
    /// One result per seed, in seed order.
    pub runs: Vec<RunMetrics>,
}

impl Replication {
    /// Summarizes execution-time cycles across the replications.
    pub fn cycles(&self) -> Summary {
        Summary::of(
            &self
                .runs
                .iter()
                .map(|r| r.cycles as f64)
                .collect::<Vec<_>>(),
        )
    }

    /// Mean improvement of this replication over a baseline replication,
    /// paired by seed.
    ///
    /// # Panics
    ///
    /// Panics if the replication lengths differ.
    pub fn improvement_over(&self, baseline: &Replication) -> Summary {
        assert_eq!(self.runs.len(), baseline.runs.len(), "pair by seed");
        let imps: Vec<f64> = self
            .runs
            .iter()
            .zip(&baseline.runs)
            .map(|(a, b)| a.improvement_over(b))
            .collect();
        Summary::of(&imps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{AllocatorKind, Scenario};
    use vmsim_os::MachineConfig;
    use vmsim_workloads::BenchId;

    /// Solo gcc on a small VM under `alloc`, one run per seed in `seeds`.
    fn replicate(seeds: std::ops::Range<u64>, alloc: AllocatorKind, ops: u64) -> Replication {
        let runs = seeds
            .map(|seed| {
                Scenario::new(BenchId::Gcc)
                    .machine(MachineConfig::paper(1, 128))
                    .allocator(alloc)
                    .measure_ops(ops)
                    .seed(seed)
                    .run()
            })
            .collect();
        Replication { runs }
    }

    #[test]
    fn summary_math() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.stddev - 2.138089935299395).abs() < 1e-9);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!(s.cv() > 0.0);
    }

    #[test]
    fn single_observation_has_zero_stddev() {
        let s = Summary::of(&[3.0]);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.n, 1);
    }

    #[test]
    #[should_panic(expected = "at least one observation")]
    fn empty_summary_rejected() {
        Summary::of(&[]);
    }

    #[test]
    fn replication_reproduces_papers_low_variance() {
        // Across seeds, execution time varies little — the paper reports
        // stddev ≤ 2 % over 40 full runs. At this deliberately tiny unit-
        // test scale (20k ops vs the default 300k) sampling noise is
        // larger, so the asserted bound is looser; the full-scale spread is
        // what `vmsim run manifests/variance.json` reports.
        let rep = replicate(0..4, AllocatorKind::Default, 20_000);
        let s = rep.cycles();
        assert_eq!(s.n, 4);
        assert!(
            s.cv() < 0.05,
            "cv {:.3}% is implausibly high",
            s.cv() * 100.0
        );
        assert!(s.min > 0.0 && s.max >= s.min);
    }

    #[test]
    fn paired_improvement_summary() {
        let base = replicate(0..3, AllocatorKind::Default, 2_000);
        let pm = replicate(0..3, AllocatorKind::PteMagnet, 2_000);
        let imp = pm.improvement_over(&base);
        // Solo gcc: tiny effect either way, but never a big slowdown.
        assert!(imp.mean > -0.01);
    }

    #[test]
    fn display_is_informative() {
        let s = Summary::of(&[1.0, 2.0]);
        let text = s.to_string();
        assert!(text.contains("n=2"));
        assert!(text.contains("cv"));
    }
}
