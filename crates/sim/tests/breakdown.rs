//! The §1/§3.2 walk-source breakdown, pinned by digest.
//!
//! The breakdown manifest runs pagerank next to objdet under the default
//! and ptemagnet allocators and reports where each page-table level's
//! walk accesses were served. Its results JSON and its report text are
//! pinned here at reduced ops, so a change to the run loop that moves a
//! single counter shows up as a digest mismatch.

use vmsim_sim::driver::{run_manifest, Outcome};
use vmsim_sim::journal::fnv1a;

/// FNV-1a digests of the reduced breakdown's results JSON and report.
const GOLDEN_BREAKDOWN_DIGESTS: [&str; 2] = ["770a324f29aff88a", "4d89cbdefd2a0c86"];

#[test]
fn breakdown_artifacts_match_their_golden_digests() {
    let mut manifest = vmsim_config::builtin::by_name("breakdown").expect("checked-in manifest");
    manifest.measure_ops = 5_000;
    let run = run_manifest(&manifest).expect("breakdown manifest runs");
    let Outcome::Breakdown(rows) = &run.outcome else {
        panic!("breakdown manifest produced {:?}", run.outcome);
    };
    let allocators: Vec<&str> = rows.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(allocators, ["default", "ptemagnet"]);
    // Fragmentation pushes host-PT leaf accesses out of the private
    // caches; PTEMagnet pulls them back in.
    let leaf_misses = |c: &vmsim_cache::MemCounters| c.host_leaf.llc_hits + c.host_leaf.memory;
    assert!(leaf_misses(&rows[1].1) < leaf_misses(&rows[0].1));
    let digests = [
        fnv1a(run.results_json().as_bytes()),
        fnv1a(run.report().as_bytes()),
    ];
    let hex: Vec<String> = digests.iter().map(|d| format!("{d:016x}")).collect();
    assert_eq!(
        hex, GOLDEN_BREAKDOWN_DIGESTS,
        "breakdown artifact bytes moved"
    );
}
