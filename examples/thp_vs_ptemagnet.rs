//! THP vs PTEMagnet: why "just use huge pages" is not the answer in a
//! public cloud (paper §2.3), demonstrated in three acts:
//!
//! 1. fresh memory — THP shines (shorter walks, perfect contiguity);
//! 2. fragmented memory — every order-9 THP allocation fails and its
//!    benefit evaporates, while PTEMagnet's order-3 reservations still
//!    succeed;
//! 3. sparse touching — THP silently multiplies resident memory by 8.
//!
//! Run with: `cargo run --release --example thp_vs_ptemagnet [measure_ops]`

use ptemagnet_sim::sim::{report, run_manifest, Outcome};

fn main() {
    let mut manifest = vmsim_config::builtin::by_name("thp").expect("manifests/thp.json");
    manifest.measure_ops = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(60_000);
    let Outcome::Thp(study) = run_manifest(&manifest).expect("thp runs").outcome else {
        unreachable!("the thp manifest reports a THP study");
    };
    print!("{}", report::format_thp(&study));
    println!();
    println!("Act 1 (fresh): THP and PTEMagnet both pin host-PT fragmentation to ~1;");
    println!("THP additionally shortens guest walks, so it can edge ahead — when it works.");
    println!();
    println!("Act 2 (fragmented): with free memory shredded into 16-frame runs, THP");
    println!("cannot find a single order-9 block and silently degrades to the default");
    println!("allocator. PTEMagnet's 8-frame reservations still fit, and still win.");
    println!();
    println!("Act 3 (sparse): an app touching every 8th page pays 8x resident memory");
    println!("under THP; PTEMagnet maps only what is touched (reservations are");
    println!("reclaimable, §4.3).");
}
