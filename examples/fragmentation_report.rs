//! Fragmentation report: a miniature Table 1 — quantify what colocation
//! with an allocation-churning co-runner does to pagerank's host page
//! table, and how each metric responds.
//!
//! Run with: `cargo run --release --example fragmentation_report [measure_ops]`

use ptemagnet_sim::sim::{report, run_manifest, Outcome};

fn main() {
    let mut manifest = vmsim_config::builtin::by_name("table1").expect("manifests/table1.json");
    manifest.measure_ops = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(80_000);
    let Outcome::Table1(t) = run_manifest(&manifest).expect("table1 runs").outcome else {
        unreachable!("the table1 manifest reports Table 1");
    };
    print!("{}", report::format_table1(&t));
    println!();
    println!("Reading the table: colocation leaves cache and TLB miss counts flat but");
    println!(
        "scatters host PTEs over {:.1}x more cache lines, so page walks spend far",
        t.colocated.host_frag / t.standalone.host_frag
    );
    println!("longer traversing the host page table — the bottleneck PTEMagnet removes.");
}
