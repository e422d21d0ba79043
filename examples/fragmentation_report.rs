//! Fragmentation report: a miniature Table 1 — quantify what colocation
//! with an allocation-churning co-runner does to pagerank's host page
//! table, and how each metric responds.
//!
//! Run with: `cargo run --release --example fragmentation_report [measure_ops]`

use ptemagnet_sim::sim::run_manifest;

fn main() {
    let mut manifest = vmsim_config::builtin::by_name("table1").expect("manifests/table1.json");
    manifest.measure_ops = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(80_000);
    let run = run_manifest(&manifest).expect("table1 runs");
    print!("{}", run.report());
    // The standalone run, then the colocated one.
    let runs = run.metrics();
    println!();
    println!("Reading the table: colocation leaves cache and TLB miss counts flat but");
    println!(
        "scatters host PTEs over {:.1}x more cache lines, so page walks spend far",
        runs[1].host_frag / runs[0].host_frag
    );
    println!("longer traversing the host page table — the bottleneck PTEMagnet removes.");
}
