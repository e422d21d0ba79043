//! The paper-shaped result types of the manifest driver's outcomes, and
//! their paper-style text rendering.

use core::fmt::Write as _;

use serde::{Deserialize, Serialize};

use crate::scenario::RunMetrics;

/// Percentage change from `from` to `to` (positive = increase).
pub fn pct_change(from: f64, to: f64) -> f64 {
    if from == 0.0 {
        0.0
    } else {
        (to - from) / from * 100.0
    }
}

/// Result of the Table 1 study.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Table1 {
    /// pagerank running alone in the VM.
    pub standalone: RunMetrics,
    /// pagerank colocated with stress-ng (stopped after the allocation
    /// phase, per the paper's §3.3 protocol).
    pub colocated: RunMetrics,
}

impl Table1 {
    /// The paper's rows: metric name, % change under colocation.
    pub fn rows(&self) -> Vec<(&'static str, f64)> {
        let s = &self.standalone;
        let c = &self.colocated;
        vec![
            (
                "Execution time",
                pct_change(s.cycles as f64, c.cycles as f64),
            ),
            (
                "Cache misses",
                pct_change(s.data_misses as f64, c.data_misses as f64),
            ),
            (
                "TLB misses",
                pct_change(s.tlb_misses as f64, c.tlb_misses as f64),
            ),
            (
                "Page walk cycles",
                pct_change(s.page_walk_cycles as f64, c.page_walk_cycles as f64),
            ),
            (
                "Cycles traversing host PT",
                pct_change(s.host_pt_cycles as f64, c.host_pt_cycles as f64),
            ),
            (
                "Guest PT accesses from memory",
                pct_change(s.guest_pt_memory as f64, c.guest_pt_memory as f64),
            ),
            (
                "Host PT accesses from memory",
                pct_change(s.host_pt_memory as f64, c.host_pt_memory as f64),
            ),
            (
                "Host PT fragmentation",
                pct_change(s.host_frag, c.host_frag),
            ),
        ]
    }
}

/// Per-benchmark pair of runs (default vs PTEMagnet) in one colocation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchPair {
    /// Benchmark identity.
    pub name: String,
    /// Run with the default kernel allocator.
    pub default: RunMetrics,
    /// Run with PTEMagnet.
    pub ptemagnet: RunMetrics,
}

impl BenchPair {
    /// Execution-time improvement of PTEMagnet over the default (fraction).
    pub fn improvement(&self) -> f64 {
        self.ptemagnet.improvement_over(&self.default)
    }
}

/// Result of a figure-style sweep over all benchmarks.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FigureSweep {
    /// Colocation label ("objdet" or "combination").
    pub colocation: String,
    /// Per-benchmark pairs, in the paper's order.
    pub pairs: Vec<BenchPair>,
}

impl FigureSweep {
    /// Geometric-mean improvement across benchmarks (the paper's Geomean
    /// bar).
    pub fn geomean_improvement(&self) -> f64 {
        let product: f64 = self
            .pairs
            .iter()
            .map(|p| 1.0 / (1.0 - p.improvement()))
            .product();
        1.0 - 1.0 / product.powf(1.0 / self.pairs.len() as f64)
    }
}

/// Result of the Table 4 study.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Table4 {
    /// pagerank + objdet on the default kernel (co-runner runs throughout).
    pub default: RunMetrics,
    /// Same colocation with PTEMagnet.
    pub ptemagnet: RunMetrics,
}

impl Table4 {
    /// The paper's rows: metric name, % change with PTEMagnet.
    pub fn rows(&self) -> Vec<(&'static str, f64)> {
        let d = &self.default;
        let p = &self.ptemagnet;
        vec![
            (
                "Host PT fragmentation",
                pct_change(d.host_frag, p.host_frag),
            ),
            (
                "Execution time",
                pct_change(d.cycles as f64, p.cycles as f64),
            ),
            (
                "Page walk cycles",
                pct_change(d.page_walk_cycles as f64, p.page_walk_cycles as f64),
            ),
            (
                "Cycles traversing host PT",
                pct_change(d.host_pt_cycles as f64, p.host_pt_cycles as f64),
            ),
            (
                "Guest PT accesses from memory",
                pct_change(d.guest_pt_memory as f64, p.guest_pt_memory as f64),
            ),
            (
                "Host PT accesses from memory",
                pct_change(d.host_pt_memory as f64, p.host_pt_memory as f64),
            ),
        ]
    }
}

/// Reserved-unused incidence for one benchmark (§6.2).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ReservedUnused {
    /// Benchmark name.
    pub name: String,
    /// Peak reserved-but-unused frames as a fraction of footprint.
    pub peak_fraction: f64,
    /// Mean over samples, as a fraction of footprint.
    pub mean_fraction: f64,
}

/// Result of the allocation-latency microbenchmark (§6.4).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct AllocLatency {
    /// Pages allocated and first-touched.
    pub pages: u64,
    /// Total cycles with the default allocator.
    pub default_cycles: u64,
    /// Total cycles with PTEMagnet.
    pub ptemagnet_cycles: u64,
}

impl AllocLatency {
    /// Fractional change of PTEMagnet vs default (negative = faster; the
    /// paper reports ≈ −0.5 %).
    pub fn change(&self) -> f64 {
        self.ptemagnet_cycles as f64 / self.default_cycles as f64 - 1.0
    }
}

/// One row of the THP study: allocator behaviour in one memory condition.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ThpRow {
    /// Allocator label.
    pub allocator: String,
    /// Memory condition ("fresh" or "fragmented").
    pub condition: String,
    /// Full run metrics.
    pub metrics: RunMetrics,
    /// Improvement over the default allocator in the same condition.
    pub improvement: f64,
}

/// Result of the THP study.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ThpStudy {
    /// Rows for fresh and fragmented memory, three allocators each.
    pub rows: Vec<ThpRow>,
    /// Sparse-touch internal fragmentation: resident pages per touched page
    /// for (default, thp, ptemagnet) — THP's hidden memory cost.
    pub sparse_rss_per_touched: [f64; 3],
}

/// One row of the hardware-sensitivity study.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HwSensitivityRow {
    /// Which knob was varied ("stlb" or "nested-tlb").
    pub knob: String,
    /// The knob's value (entries).
    pub value: usize,
    /// Baseline TLB miss ratio (fraction of lookups that walk).
    pub tlb_miss_ratio: f64,
    /// PTEMagnet's improvement at this setting.
    pub improvement: f64,
}

/// Renders Table 1 in the paper's "metric / change" format.
pub fn format_table1(t: &Table1) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1: pagerank colocated with stress-ng vs standalone (default kernel)"
    );
    let _ = writeln!(out, "{:<36} {:>10}", "Metric", "Change");
    for (name, change) in t.rows() {
        let _ = writeln!(out, "{name:<36} {change:>+9.1}%");
    }
    let _ = writeln!(
        out,
        "(host PT fragmentation: {:.2} standalone -> {:.2} colocated)",
        t.standalone.host_frag, t.colocated.host_frag
    );
    out
}

/// Renders Figure 5's series: host-PT fragmentation per benchmark, default
/// vs PTEMagnet (lower is better).
pub fn format_fig5(s: &FigureSweep) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 5: host PT fragmentation in colocation with {} (lower is better)",
        s.colocation
    );
    let _ = writeln!(
        out,
        "{:<10} {:>9} {:>10}",
        "benchmark", "default", "ptemagnet"
    );
    for p in &s.pairs {
        let _ = writeln!(
            out,
            "{:<10} {:>9.2} {:>10.2}",
            p.name, p.default.host_frag, p.ptemagnet.host_frag
        );
    }
    out
}

/// Renders Figure 6/7's series: per-benchmark performance improvement.
pub fn format_improvement_figure(s: &FigureSweep, figure: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{figure}: performance improvement under colocation with {}",
        s.colocation
    );
    let _ = writeln!(out, "{:<10} {:>12}", "benchmark", "improvement");
    for p in &s.pairs {
        let _ = writeln!(out, "{:<10} {:>+11.1}%", p.name, p.improvement() * 100.0);
    }
    let _ = writeln!(
        out,
        "{:<10} {:>+11.1}%",
        "Geomean",
        s.geomean_improvement() * 100.0
    );
    out
}

/// Renders Table 4 in the paper's "metric / change" format.
pub fn format_table4(t: &Table4) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 4: pagerank + objdet, PTEMagnet vs default kernel"
    );
    let _ = writeln!(out, "{:<36} {:>10}", "Metric", "Change");
    for (name, change) in t.rows() {
        let _ = writeln!(out, "{name:<36} {change:>+9.1}%");
    }
    let _ = writeln!(
        out,
        "(host PT fragmentation: {:.2} default -> {:.2} PTEMagnet)",
        t.default.host_frag, t.ptemagnet.host_frag
    );
    out
}

/// Renders the §6.2 reserved-unused study.
pub fn format_sec62(rows: &[ReservedUnused]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Sec 6.2: non-allocated pages within reservations (fraction of footprint)"
    );
    let _ = writeln!(out, "{:<10} {:>9} {:>9}", "benchmark", "peak", "mean");
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>8.3}% {:>8.3}%",
            r.name,
            r.peak_fraction * 100.0,
            r.mean_fraction * 100.0
        );
    }
    out
}

/// Renders the §6.4 allocation-latency microbenchmark.
pub fn format_sec64(r: &AllocLatency) -> String {
    format!(
        "Sec 6.4: allocation microbenchmark over {} pages\n\
         default:   {} cycles\n\
         ptemagnet: {} cycles ({:+.2}%)\n",
        r.pages,
        r.default_cycles,
        r.ptemagnet_cycles,
        r.change() * 100.0
    )
}

/// Renders a labelled horizontal ASCII bar chart (one row per series), for
/// terminal-native versions of the paper's figures.
///
/// Bars are scaled so the largest value spans `width` characters; values
/// are annotated at the end of each bar with `fmt_value`.
pub fn ascii_bars(
    rows: &[(String, f64)],
    width: usize,
    fmt_value: impl Fn(f64) -> String,
) -> String {
    let max = rows.iter().map(|(_, v)| v.abs()).fold(0.0_f64, f64::max);
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, value) in rows {
        let bar_len = if max == 0.0 {
            0
        } else {
            ((value.abs() / max) * width as f64).round() as usize
        };
        let _ = writeln!(
            out,
            "{label:<label_w$} |{bar:<width$}| {val}",
            bar = "█".repeat(bar_len),
            val = fmt_value(*value),
        );
    }
    out
}

/// Renders a [`FigureSweep`] as an ASCII bar chart of improvements.
pub fn figure_as_bars(s: &FigureSweep) -> String {
    let mut rows: Vec<(String, f64)> = s
        .pairs
        .iter()
        .map(|p| (p.name.clone(), p.improvement() * 100.0))
        .collect();
    rows.push(("Geomean".to_string(), s.geomean_improvement() * 100.0));
    ascii_bars(&rows, 40, |v| format!("{v:+.1}%"))
}

/// Renders the §1 walk-source breakdown: for each page-table level of each
/// dimension, where its accesses were served from.
pub fn format_breakdown(allocator: &str, c: &vmsim_cache::MemCounters) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Walk-access sources with the {allocator} allocator:");
    let _ = writeln!(
        out,
        "{:<14} {:>10} {:>7} {:>7} {:>7} {:>7}",
        "PT level", "accesses", "L1", "L2", "LLC", "DRAM"
    );
    let mut row = |label: String, k: &vmsim_cache::KindCounters| {
        let pct = |x: u64| {
            if k.accesses == 0 {
                0.0
            } else {
                x as f64 / k.accesses as f64 * 100.0
            }
        };
        let _ = writeln!(
            out,
            "{:<14} {:>10} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%",
            label,
            k.accesses,
            pct(k.l1_hits),
            pct(k.l2_hits),
            pct(k.llc_hits),
            pct(k.memory)
        );
    };
    for (level, k) in c.guest_pt_levels.iter().enumerate() {
        row(format!("guest L{level}"), k);
    }
    for (level, k) in c.host_pt_levels.iter().enumerate() {
        row(format!("host  L{level}"), k);
    }
    out
}

/// Serializes run metrics to CSV (header + one row per run), for plotting
/// the figures outside the simulator.
pub fn runs_to_csv(runs: &[crate::scenario::RunMetrics]) -> String {
    let mut out = String::from(
        "benchmark,allocator,measure_ops,cycles,tlb_lookups,tlb_misses,data_accesses,\
         data_misses,page_walk_cycles,host_pt_cycles,guest_pt_accesses,guest_pt_memory,\
         host_pt_accesses,host_pt_memory,host_frag,guest_frag,init_cycles,footprint_pages,\
         reserved_unused_peak,total_faults,reservation_fallbacks,reclaimed_frames,\
         faults_injected\n",
    );
    for r in runs {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.4},{:.4},{},{},{},{},{},{},{}",
            r.benchmark,
            r.allocator,
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
            r.host_pt_memory,
            r.host_frag,
            r.guest_frag,
            r.init_cycles,
            r.footprint_pages,
            r.reserved_unused_peak,
            r.total_faults,
            r.reservation_fallbacks,
            r.reclaimed_frames,
            r.faults_injected,
        );
    }
    out
}

/// Renders the THP study (§2.3 baseline comparison).
pub fn format_thp(s: &ThpStudy) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "THP study: pagerank + objdet, default vs THP vs PTEMagnet"
    );
    let _ = writeln!(
        out,
        "{:<12} {:<11} {:>12} {:>10} {:>12}",
        "condition", "allocator", "improvement", "host-frag", "init cycles"
    );
    for r in &s.rows {
        let _ = writeln!(
            out,
            "{:<12} {:<11} {:>+11.1}% {:>10.2} {:>12}",
            r.condition,
            r.allocator,
            r.improvement * 100.0,
            r.metrics.host_frag,
            r.metrics.init_cycles
        );
    }
    let _ = writeln!(
        out,
        "\nSparse-touch (every 8th page) resident pages per touched page:"
    );
    let _ = writeln!(
        out,
        "default {:.1}   thp {:.1}   ptemagnet {:.1}",
        s.sparse_rss_per_touched[0], s.sparse_rss_per_touched[1], s.sparse_rss_per_touched[2]
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_bars_scale_to_the_max() {
        let rows = vec![
            ("a".to_string(), 10.0),
            ("bb".to_string(), 5.0),
            ("ccc".to_string(), 0.0),
        ];
        let chart = ascii_bars(&rows, 10, |v| format!("{v:.0}"));
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].matches('█').count(), 10);
        assert_eq!(lines[1].matches('█').count(), 5);
        assert_eq!(lines[2].matches('█').count(), 0);
        // Labels are padded to the widest.
        assert!(lines[0].starts_with("a   |"));
    }

    #[test]
    fn ascii_bars_handle_all_zero_series() {
        let rows = vec![("x".to_string(), 0.0)];
        let chart = ascii_bars(&rows, 10, |v| format!("{v}"));
        assert!(chart.contains("x |"));
        assert_eq!(chart.matches('█').count(), 0);
    }

    #[test]
    fn csv_has_header_and_rows() {
        use crate::scenario::{AllocatorKind, Scenario};
        use vmsim_os::MachineConfig;
        use vmsim_workloads::BenchId;
        let run = Scenario::new(BenchId::Gcc)
            .machine(MachineConfig::paper(1, 128))
            .allocator(AllocatorKind::PteMagnet)
            .measure_ops(1_000)
            .run();
        let csv = runs_to_csv(&[run.clone(), run]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("benchmark,allocator,"));
        assert!(lines[1].starts_with("gcc,ptemagnet,"));
        // Same column count in header and rows.
        assert_eq!(lines[0].split(',').count(), lines[1].split(',').count());
    }

    #[test]
    fn sec64_format_mentions_both_allocators() {
        let s = format_sec64(&AllocLatency {
            pages: 10,
            default_cycles: 1000,
            ptemagnet_cycles: 995,
        });
        assert!(s.contains("default"));
        assert!(s.contains("ptemagnet"));
        assert!(s.contains("-0.50%"));
    }

    /// A synthetic RunMetrics for formatting tests.
    fn metrics(cycles: u64, host_frag: f64) -> crate::scenario::RunMetrics {
        crate::scenario::RunMetrics {
            benchmark: "pagerank".into(),
            allocator: "default".into(),
            measure_ops: 1000,
            cycles,
            tlb_lookups: 500,
            tlb_misses: 100,
            data_accesses: 1000,
            data_misses: 50,
            page_walk_cycles: cycles / 5,
            host_pt_cycles: cycles / 10,
            guest_pt_accesses: 400,
            guest_pt_memory: 4,
            host_pt_accesses: 400,
            host_pt_memory: 40,
            host_frag,
            guest_frag: 1.0,
            init_cycles: 9999,
            footprint_pages: 1000,
            reserved_unused_peak: 2,
            reserved_unused_mean: 1.0,
            total_faults: 1000,
            reservation_fallbacks: 0,
            reclaimed_frames: 0,
            faults_injected: 0,
        }
    }

    #[test]
    fn table_formats_compute_percent_changes() {
        let t1 = Table1 {
            standalone: metrics(100_000, 2.0),
            colocated: metrics(110_000, 6.0),
        };
        let s = format_table1(&t1);
        assert!(s.contains("Execution time"));
        assert!(s.contains("+10.0%"));
        assert!(s.contains("+200.0%"), "fragmentation 2.0 -> 6.0:\n{s}");

        let t4 = Table4 {
            default: metrics(100_000, 7.0),
            ptemagnet: metrics(93_000, 1.0),
        };
        let s = format_table4(&t4);
        assert!(s.contains("-7.0%"));
        assert!(s.contains("7.00 default -> 1.00 PTEMagnet"));
    }

    #[test]
    fn figure_formats_list_every_benchmark_and_geomean() {
        let sweep = FigureSweep {
            colocation: "objdet".into(),
            pairs: vec![BenchPair {
                name: "xz".into(),
                default: metrics(100_000, 7.0),
                ptemagnet: metrics(91_000, 1.0),
            }],
        };
        let s = format_fig5(&sweep);
        assert!(s.contains("xz") && s.contains("7.00") && s.contains("1.00"));
        let s = format_improvement_figure(&sweep, "Figure 6");
        assert!(s.contains("+9.0%"));
        assert!(s.contains("Geomean"));
        let bars = figure_as_bars(&sweep);
        assert!(bars.contains('█'));
        assert!(bars.contains("xz"));
    }

    #[test]
    fn pct_change_math() {
        assert!((pct_change(100.0, 111.0) - 11.0).abs() < 1e-9);
        assert!((pct_change(100.0, 93.0) + 7.0).abs() < 1e-9);
        assert_eq!(pct_change(0.0, 5.0), 0.0);
    }

    #[test]
    fn geomean_of_identical_improvements_is_that_improvement() {
        let pair = BenchPair {
            name: "x".into(),
            default: metrics(100_000, 1.0),
            ptemagnet: metrics(96_000, 1.0),
        };
        let sweep = FigureSweep {
            colocation: "t".into(),
            pairs: vec![pair.clone(), pair],
        };
        assert!((sweep.geomean_improvement() - 0.04).abs() < 1e-6);
    }

    #[test]
    fn breakdown_format_has_all_levels() {
        let mut c = vmsim_cache::MemCounters::default();
        c.record(
            vmsim_cache::AccessKind::host_pt(3),
            vmsim_cache::HitLevel::Llc,
            42,
        );
        let s = format_breakdown("default", &c);
        for level in 0..4 {
            assert!(s.contains(&format!("guest L{level}")));
            assert!(s.contains(&format!("host  L{level}")));
        }
        assert!(s.contains("100.0%"), "host L3 served 100% from LLC:\n{s}");
    }
}
