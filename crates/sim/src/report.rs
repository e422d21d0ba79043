//! The paper-style text of every report. A matrix manifest's report is
//! [`render`]: one function per report kind, each reading only the
//! manifest and its completed runs in matrix order. The two special kinds
//! render their own payloads ([`format_sec64`], [`format_breakdown`]).

use core::fmt::Write as _;

use serde::{Deserialize, Serialize};
use vmsim_config::{ExperimentManifest, ExperimentSpec, MatrixSpec, PolicySpec, ReportKind};
use vmsim_os::{GuestOs, Machine, MachineConfig};
use vmsim_types::{GuestVirtAddr, GuestVirtPage, PAGE_SIZE};

use crate::parallel::{self, Parallelism};
use crate::scenario::RunMetrics;
use crate::stats::Replication;

/// Percentage change from `from` to `to` (positive = increase).
pub fn pct_change(from: f64, to: f64) -> f64 {
    if from == 0.0 {
        0.0
    } else {
        (to - from) / from * 100.0
    }
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

/// A completed matrix run as its renderer reads it.
struct Matrix<'a> {
    manifest: &'a ExperimentManifest,
    spec: &'a MatrixSpec,
    runs: &'a [RunMetrics],
}

impl Matrix<'_> {
    /// The run of workload `w` under policy `p` at seed index `s`.
    fn at(&self, w: usize, p: usize, s: usize) -> &RunMetrics {
        let (pn, sn) = (self.spec.policies.len(), self.manifest.seeds.len());
        &self.runs[(w * pn + p) * sn + s]
    }

    /// The name of policy `p`.
    fn policy(&self, p: usize) -> &str {
        self.spec.policies[p].name()
    }
}

/// Renders a matrix manifest's report from its runs in matrix order
/// (`index = (w·P + p)·S + s`, one run per cell).
///
/// # Panics
///
/// Panics if `manifest` is not a matrix or `runs` does not hold one run
/// per cell.
pub fn render(manifest: &ExperimentManifest, runs: &[RunMetrics]) -> String {
    let ExperimentSpec::Matrix(spec) = &manifest.experiment else {
        panic!("{} is not a matrix manifest", manifest.name);
    };
    assert_eq!(
        runs.len(),
        spec.workloads.len() * spec.policies.len() * manifest.seeds.len(),
        "one run per matrix cell"
    );
    let m = Matrix {
        manifest,
        spec,
        runs,
    };
    match spec.report {
        ReportKind::Runs => runs_listing(&m),
        ReportKind::Csv => runs_to_csv(runs),
        ReportKind::Table1 => change_table(
            "Table 1: pagerank colocated with stress-ng vs standalone (default kernel)",
            &[
                EXECUTION_TIME,
                CACHE_MISSES,
                TLB_MISSES,
                PAGE_WALK_CYCLES,
                HOST_PT_CYCLES,
                GUEST_PT_MEMORY,
                HOST_PT_MEMORY,
                HOST_PT_FRAGMENTATION,
            ],
            ("standalone", m.at(0, 0, 0)),
            ("colocated", m.at(1, 0, 0)),
        ),
        ReportKind::Table4 => change_table(
            "Table 4: pagerank + objdet, PTEMagnet vs default kernel",
            &[
                HOST_PT_FRAGMENTATION,
                EXECUTION_TIME,
                PAGE_WALK_CYCLES,
                HOST_PT_CYCLES,
                GUEST_PT_MEMORY,
                HOST_PT_MEMORY,
            ],
            ("default", m.at(0, 0, 0)),
            ("PTEMagnet", m.at(0, 1, 0)),
        ),
        ReportKind::Fig5 => fig5(&m),
        ReportKind::Fig6 => improvement_figure(&m, "Figure 6"),
        ReportKind::Fig7 => improvement_figure(&m, "Figure 7"),
        ReportKind::Sec62 => sec62(&m),
        ReportKind::Thp => thp(&m),
        ReportKind::Specint => specint(&m),
        ReportKind::Variance => variance(&m),
        ReportKind::Llc => llc(&m),
        ReportKind::Hw => hw(&m),
        ReportKind::Pressure => pressure(&m),
        ReportKind::Colocation => colocation(&m),
    }
}

/// Width of the workload column in the per-cell listings: the longest
/// workload label, and at least 24 characters.
pub(crate) fn workload_column(spec: &MatrixSpec) -> usize {
    spec.workloads
        .iter()
        .map(|w| w.display_label().chars().count())
        .fold(24, usize::max)
}

/// Generic per-run listing: one line per cell.
fn runs_listing(m: &Matrix<'_>) -> String {
    let width = workload_column(m.spec);
    let mut out = format!("{}\n", m.manifest.description);
    let _ = writeln!(
        out,
        "{:<width$} {:<14} {:>6} {:>14} {:>10}",
        "workload", "policy", "seed", "cycles", "host-frag"
    );
    for (w, workload) in m.spec.workloads.iter().enumerate() {
        for p in 0..m.spec.policies.len() {
            for (s, seed) in m.manifest.seeds.iter().enumerate() {
                let r = m.at(w, p, s);
                let _ = writeln!(
                    out,
                    "{:<width$} {:<14} {:>6} {:>14} {:>10.3}",
                    workload.display_label(),
                    m.policy(p),
                    seed,
                    r.cycles,
                    r.host_frag
                );
            }
        }
    }
    out
}

/// One row of a change table: the paper's metric name and its value in a
/// run.
type ChangeRow = (&'static str, fn(&RunMetrics) -> f64);

const EXECUTION_TIME: ChangeRow = ("Execution time", |r| r.cycles as f64);
const CACHE_MISSES: ChangeRow = ("Cache misses", |r| r.data_misses as f64);
const TLB_MISSES: ChangeRow = ("TLB misses", |r| r.tlb_misses as f64);
const PAGE_WALK_CYCLES: ChangeRow = ("Page walk cycles", |r| r.page_walk_cycles as f64);
const HOST_PT_CYCLES: ChangeRow = ("Cycles traversing host PT", |r| r.host_pt_cycles as f64);
const GUEST_PT_MEMORY: ChangeRow = ("Guest PT accesses from memory", |r| {
    r.guest_pt_memory as f64
});
const HOST_PT_MEMORY: ChangeRow = ("Host PT accesses from memory", |r| r.host_pt_memory as f64);
const HOST_PT_FRAGMENTATION: ChangeRow = ("Host PT fragmentation", |r| r.host_frag);

/// Renders a paper change table (Tables 1 and 4): each row's % change from
/// the `from` run to the `to` run, then both runs' host-PT fragmentation
/// under their labels.
fn change_table(
    title: &str,
    rows: &[ChangeRow],
    from: (&str, &RunMetrics),
    to: (&str, &RunMetrics),
) -> String {
    let mut out = format!("{title}\n");
    let _ = writeln!(out, "{:<36} {:>10}", "Metric", "Change");
    for (name, value) in rows {
        let change = pct_change(value(from.1), value(to.1));
        let _ = writeln!(out, "{name:<36} {change:>+9.1}%");
    }
    let _ = writeln!(
        out,
        "(host PT fragmentation: {:.2} {} -> {:.2} {})",
        from.1.host_frag, from.0, to.1.host_frag, to.0
    );
    out
}

/// The colocation a figure sweep runs under: the shared co-runner name,
/// `combination` for several, `standalone` for none, `mixed` if workloads
/// disagree.
fn colocation_label(spec: &MatrixSpec) -> String {
    let first = spec
        .workloads
        .first()
        .map(|w| w.corunners.clone())
        .unwrap_or_default();
    if spec.workloads.iter().any(|w| w.corunners != first) {
        return "mixed".to_string();
    }
    match first.len() {
        0 => "standalone".to_string(),
        1 => first[0].clone(),
        _ => "combination".to_string(),
    }
}

/// Figure 5: host-PT fragmentation per benchmark under both policies
/// (lower is better).
fn fig5(m: &Matrix<'_>) -> String {
    let mut out = format!(
        "Figure 5: host PT fragmentation in colocation with {} (lower is better)\n",
        colocation_label(m.spec)
    );
    let _ = writeln!(
        out,
        "{:<10} {:>9} {:>10}",
        "benchmark",
        m.policy(0),
        m.policy(1)
    );
    for (w, workload) in m.spec.workloads.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:<10} {:>9.2} {:>10.2}",
            workload.benchmark,
            m.at(w, 0, 0).host_frag,
            m.at(w, 1, 0).host_frag
        );
    }
    out
}

/// Figures 6 and 7: the contender's improvement over the baseline per
/// benchmark and their geometric mean (the paper's Geomean bar), as a
/// table and as an ASCII bar chart.
fn improvement_figure(m: &Matrix<'_>, figure: &str) -> String {
    let mut rows: Vec<(String, f64)> = m
        .spec
        .workloads
        .iter()
        .enumerate()
        .map(|(w, workload)| {
            let improvement = m.at(w, 1, 0).improvement_over(m.at(w, 0, 0));
            (workload.benchmark.clone(), improvement)
        })
        .collect();
    let product: f64 = rows.iter().map(|(_, imp)| 1.0 / (1.0 - imp)).product();
    let geomean = 1.0 - 1.0 / product.powf(1.0 / rows.len() as f64);
    rows.push(("Geomean".to_string(), geomean));
    for row in &mut rows {
        row.1 *= 100.0;
    }
    let mut out = format!(
        "{figure}: performance improvement under colocation with {}\n",
        colocation_label(m.spec)
    );
    let _ = writeln!(out, "{:<10} {:>12}", "benchmark", "improvement");
    for (name, pct) in &rows {
        let _ = writeln!(out, "{name:<10} {pct:>+11.1}%");
    }
    out.push('\n');
    out.push_str(&ascii_bars(&rows, 40, |v| format!("{v:+.1}%")));
    out
}

/// §6.2: reserved-but-unused frames per benchmark as a fraction of its
/// footprint, then the adversarial every-8th-page microbenchmark.
fn sec62(m: &Matrix<'_>) -> String {
    let mut out =
        "Sec 6.2: non-allocated pages within reservations (fraction of footprint)\n".to_string();
    let _ = writeln!(out, "{:<10} {:>9} {:>9}", "benchmark", "peak", "mean");
    for (w, workload) in m.spec.workloads.iter().enumerate() {
        let r = m.at(w, 0, 0);
        let mean = if r.footprint_pages == 0 {
            0.0
        } else {
            r.reserved_unused_mean / r.footprint_pages as f64
        };
        let _ = writeln!(
            out,
            "{:<10} {:>8.3}% {:>8.3}%",
            workload.benchmark,
            r.reserved_unused_fraction() * 100.0,
            mean * 100.0
        );
    }
    out.push_str(&sec62_adversarial());
    out
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

/// The THP study (§2.3): each policy's improvement over `policies[0]`
/// (the default kernel) per memory condition, then the sparse-touch
/// microbenchmark's resident pages per touched page under each policy.
fn thp(m: &Matrix<'_>) -> String {
    let mut out = "THP study: pagerank + objdet, default vs THP vs PTEMagnet\n".to_string();
    let _ = writeln!(
        out,
        "{:<12} {:<11} {:>12} {:>10} {:>12}",
        "condition", "allocator", "improvement", "host-frag", "init cycles"
    );
    for (w, workload) in m.spec.workloads.iter().enumerate() {
        for p in 0..m.spec.policies.len() {
            let r = m.at(w, p, 0);
            let _ = writeln!(
                out,
                "{:<12} {:<11} {:>+11.1}% {:>10.2} {:>12}",
                workload.display_label(),
                m.policy(p),
                r.improvement_over(m.at(w, 0, 0)) * 100.0,
                r.host_frag,
                r.init_cycles
            );
        }
    }
    let _ = writeln!(
        out,
        "\nSparse-touch (every 8th page) resident pages per touched page:"
    );
    let sparse: Vec<String> = m
        .spec
        .policies
        .iter()
        .zip(sparse_rss(&m.spec.policies))
        .map(|(policy, ratio)| format!("{} {ratio:.1}", policy.name()))
        .collect();
    let _ = writeln!(out, "{}", sparse.join("   "));
    out
}

/// The THP study's sparse-touch microbenchmark: touch every 8th page of a
/// large VMA and report resident pages per touched page, one value per
/// policy (THP's hidden internal-fragmentation cost).
fn sparse_rss(policies: &[PolicySpec]) -> Vec<f64> {
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
    parallel::run_indexed(Parallelism::from_env(), policies.len(), |i| {
        sparse(&policies[i])
    })
}

/// §6.1 zero-overhead check: each benchmark's mean improvement over the
/// seeds, and the worst of them.
fn specint(m: &Matrix<'_>) -> String {
    let sn = m.manifest.seeds.len();
    let mut out = "Zero-overhead check: low-TLB-pressure SPECint + objdet\n".to_string();
    let _ = writeln!(out, "{:<12} {:>12}", "benchmark", "improvement");
    let mut worst = f64::INFINITY;
    for (w, workload) in m.spec.workloads.iter().enumerate() {
        let mean = (0..sn)
            .map(|s| m.at(w, 1, s).improvement_over(m.at(w, 0, s)))
            .sum::<f64>()
            / sn as f64;
        let _ = writeln!(out, "{:<12} {:>+11.2}%", workload.benchmark, mean * 100.0);
        worst = worst.min(mean);
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

/// §6.1 run-to-run variance: each policy's coefficient of variation across
/// the seeds, and the contender's seed-paired improvement.
fn variance(m: &Matrix<'_>) -> String {
    let replication = |p: usize| Replication {
        runs: (0..m.manifest.seeds.len())
            .map(|s| m.at(0, p, s).clone())
            .collect(),
    };
    let (base, contender) = (replication(0), replication(1));
    let mut out = format!(
        "Variance study: {} across {} seeds, {} ops each\n",
        m.spec.workloads[0].display_label(),
        m.manifest.seeds.len(),
        m.manifest.measure_ops
    );
    let _ = writeln!(
        out,
        "{:<11} {:>10} {:>22}",
        "allocator", "cv", "improvement (mean±sd)"
    );
    let _ = writeln!(
        out,
        "{:<11} {:>9.2}% {:>22}",
        m.policy(0),
        base.cycles().cv() * 100.0,
        "-"
    );
    let imp = contender.improvement_over(&base);
    let _ = writeln!(
        out,
        "{:<11} {:>9.2}% {:>14.1}% ± {:.1}%",
        m.policy(1),
        contender.cycles().cv() * 100.0,
        imp.mean * 100.0,
        imp.stddev * 100.0
    );
    let _ = writeln!(
        out,
        "\nPaper: execution-time stddev over 40 runs <= 2%. Measured cv: {:.2}% / {:.2}%.",
        base.cycles().cv() * 100.0,
        contender.cycles().cv() * 100.0
    );
    out
}

/// LLC-capacity sweep: the contender's improvement at each workload's
/// `llc_mb`.
fn llc(m: &Matrix<'_>) -> String {
    let mut out = format!("{}\n", m.manifest.description);
    let _ = writeln!(out, "{:<8} {:>12}", "LLC", "improvement");
    for (w, workload) in m.spec.workloads.iter().enumerate() {
        let mb = workload
            .sim
            .and_then(|s| s.llc_mb)
            .expect("llc manifest pre-validated");
        let improvement = m.at(w, 1, 0).improvement_over(m.at(w, 0, 0));
        let _ = writeln!(
            out,
            "{:<8} {:>+11.1}%",
            format!("{mb} MB"),
            improvement * 100.0
        );
    }
    out
}

/// Hardware sensitivity: per workload, the TLB knob it sets, the
/// baseline's TLB miss ratio and the contender's improvement.
fn hw(m: &Matrix<'_>) -> String {
    let mut out = format!("{}\n", m.manifest.description);
    let _ = writeln!(
        out,
        "{:<12} {:>8} {:>10} {:>12}",
        "knob", "entries", "tlb-miss", "improvement"
    );
    for (w, workload) in m.spec.workloads.iter().enumerate() {
        let sim = workload.sim.unwrap_or_default();
        let (knob, value) = match sim.stlb_entries {
            Some(v) => ("stlb", v),
            None => (
                "nested-tlb",
                sim.nested_tlb_entries.expect("hw manifest pre-validated"),
            ),
        };
        let base = m.at(w, 0, 0);
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>9.1}% {:>+11.1}%",
            knob,
            value,
            base.tlb_misses as f64 / base.tlb_lookups.max(1) as f64 * 100.0,
            m.at(w, 1, 0).improvement_over(base) * 100.0
        );
    }
    out
}

/// Graceful degradation under fault injection: each (workload, policy)
/// cell's slowdown against the same policy under the first workload, and
/// what the injector and reclaim did.
fn pressure(m: &Matrix<'_>) -> String {
    let mut out = format!("{}\n", m.manifest.description);
    let _ = writeln!(
        out,
        "{:<16} {:<12} {:>14} {:>10} {:>10} {:>10} {:>10}",
        "workload", "policy", "cycles", "slowdown", "injected", "fallbacks", "reclaimed"
    );
    for (w, workload) in m.spec.workloads.iter().enumerate() {
        for p in 0..m.spec.policies.len() {
            let r = m.at(w, p, 0);
            let slowdown = r.cycles as f64 / m.at(0, p, 0).cycles.max(1) as f64 - 1.0;
            let _ = writeln!(
                out,
                "{:<16} {:<12} {:>14} {:>+9.1}% {:>10} {:>10} {:>10}",
                workload.display_label(),
                m.policy(p),
                r.cycles,
                slowdown * 100.0,
                r.faults_injected,
                r.reservation_fallbacks,
                r.reclaimed_frames
            );
        }
    }
    out
}

/// Multi-tenant colocation: per fleet and policy, VM 0's cycles, its
/// improvement over the first policy on the same fleet, its host-PT
/// fragmentation and the fleet's guest page faults.
fn colocation(m: &Matrix<'_>) -> String {
    let mut out = format!("{}\n", m.manifest.description);
    let _ = writeln!(
        out,
        "{:<20} {:<12} {:>5} {:>6} {:>14} {:>12} {:>10} {:>12}",
        "fleet", "policy", "vms", "churn", "cycles", "improvement", "host-frag", "faults"
    );
    for (w, workload) in m.spec.workloads.iter().enumerate() {
        let vms = workload
            .vms
            .or(m.manifest.vms)
            .expect("colocation manifest pre-validated");
        for p in 0..m.spec.policies.len() {
            let r = m.at(w, p, 0);
            let _ = writeln!(
                out,
                "{:<20} {:<12} {:>5} {:>6} {:>14} {:>+11.1}% {:>10.3} {:>12}",
                workload.display_label(),
                m.policy(p),
                vms.count,
                if vms.churn_period_ops.is_some() {
                    "on"
                } else {
                    "off"
                },
                r.cycles,
                r.improvement_over(m.at(w, 0, 0)) * 100.0,
                r.host_frag,
                r.total_faults
            );
        }
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

/// Renders one allocator's rows of the §1 walk-source breakdown: for each
/// page-table level of each dimension, where its accesses were served
/// from, then how many more host-PT than guest-PT accesses reached DRAM.
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
    let ratio = if c.guest_pt.memory == 0 {
        f64::INFINITY
    } else {
        c.host_pt.memory as f64 / c.guest_pt.memory as f64
    };
    let _ = writeln!(
        out,
        "-> host-PT DRAM accesses are {ratio:.1}x the guest-PT's (paper: 4.4x under colocation)\n"
    );
    out
}

/// Serializes run metrics to CSV (header + one row per run), for plotting
/// the figures outside the simulator.
pub fn runs_to_csv(runs: &[RunMetrics]) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;
    use vmsim_config::builtin;

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

    /// The checked-in figure manifest `name` with only its xz workload,
    /// `copies` times over.
    fn xz_figure(name: &str, copies: usize) -> ExperimentManifest {
        let mut manifest = builtin::by_name(name).expect("checked-in manifest");
        let ExperimentSpec::Matrix(spec) = &mut manifest.experiment else {
            unreachable!("figures are matrices");
        };
        let xz = spec
            .workloads
            .iter()
            .find(|w| w.benchmark == "xz")
            .expect("figures include xz");
        spec.workloads = vec![xz.clone(); copies];
        manifest
    }

    #[test]
    fn table_formats_compute_percent_changes() {
        let t1 = builtin::by_name("table1").expect("checked-in manifest");
        let s = render(&t1, &[metrics(100_000, 2.0), metrics(110_000, 6.0)]);
        assert!(s.contains("Execution time"));
        assert!(s.contains("+10.0%"));
        assert!(s.contains("+200.0%"), "fragmentation 2.0 -> 6.0:\n{s}");

        let t4 = builtin::by_name("table4").expect("checked-in manifest");
        let s = render(&t4, &[metrics(100_000, 7.0), metrics(93_000, 1.0)]);
        assert!(s.contains("-7.0%"));
        assert!(s.contains("7.00 default -> 1.00 PTEMagnet"));
    }

    #[test]
    fn figure_formats_list_every_benchmark_and_geomean() {
        let runs = [metrics(100_000, 7.0), metrics(91_000, 1.0)];
        let s = render(&xz_figure("fig5", 1), &runs);
        assert!(s.contains("xz") && s.contains("7.00") && s.contains("1.00"));
        let s = render(&xz_figure("fig6", 1), &runs);
        assert!(s.contains("+9.0%"));
        assert!(s.contains("Geomean"));
        assert!(s.contains('█'));
    }

    #[test]
    fn runs_listing_widens_its_workload_column_to_the_longest_label() {
        const LABEL: &str = "cc+objdet+chameleon+pyaes+json_serdes+rnn_serving+gcc(co)+xz(co)";
        let mut smoke = builtin::smoke();
        let ExperimentSpec::Matrix(spec) = &mut smoke.experiment else {
            unreachable!("smoke is a matrix");
        };
        spec.workloads[0].label = Some(LABEL.to_string());
        let s = render(&smoke, &[metrics(100_000, 2.0), metrics(96_000, 1.0)]);
        let lines: Vec<&str> = s.lines().collect();
        let header = format!("{:<width$} policy ", "workload", width = LABEL.len());
        assert!(lines[1].starts_with(&header), "{s}");
        assert!(lines[2].starts_with(&format!("{LABEL} default ")), "{s}");
        assert!(lines[3].starts_with(&format!("{LABEL} ptemagnet ")), "{s}");
    }

    #[test]
    fn pct_change_math() {
        assert!((pct_change(100.0, 111.0) - 11.0).abs() < 1e-9);
        assert!((pct_change(100.0, 93.0) + 7.0).abs() < 1e-9);
        assert_eq!(pct_change(0.0, 5.0), 0.0);
    }

    #[test]
    fn geomean_of_identical_improvements_is_that_improvement() {
        let pair = [metrics(100_000, 1.0), metrics(96_000, 1.0)];
        let s = render(&xz_figure("fig6", 2), &[&pair[..], &pair[..]].concat());
        let geomean: Vec<&str> = s.lines().filter(|l| l.starts_with("Geomean")).collect();
        assert_eq!(geomean.len(), 2, "table row and bar:\n{s}");
        assert!(geomean.iter().all(|l| l.ends_with("+4.0%")), "{s}");
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
