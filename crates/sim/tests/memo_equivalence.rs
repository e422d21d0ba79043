//! Differential proof that the memoizing translation core is
//! **bit-invisible**: a memo-on run must be field-identical to a memo-off
//! (naive) run — end-of-run metrics, the epoch time series, the final
//! metrics snapshot, and the event trace — across seeds, every registry
//! policy, live fault plans, and worker-pool widths. Every touch takes
//! the one per-access path (`Machine::touch_vm`), so the memo slot is the
//! only fast path and the memo-off runs here are the naive baseline.
//!
//! The second half unit-tests the memo invalidation sources the
//! differential sweep can only exercise statistically: reclaim storms,
//! host swap-outs, and THP splits must each evict stale signatures.

use proptest::prelude::*;
use vmsim_os::{Machine, MachineConfig};
use vmsim_sim::{AllocatorKind, ObsConfig, ObservedRun, Parallelism, Scenario};
use vmsim_types::{FaultPlan, GuestVirtAddr, PT_ENTRIES};
use vmsim_workloads::BenchId;

const POLICIES: [AllocatorKind; 4] = [
    AllocatorKind::Default,
    AllocatorKind::PteMagnet,
    AllocatorKind::CaPagingLike,
    AllocatorKind::Thp,
];

fn live_plan() -> FaultPlan {
    FaultPlan {
        seed: 0xF00D,
        chunk_fail_rate: 0.3,
        oom_rate: 0.01,
        frag_shock_every: Some(700),
        frag_shock_order: 0,
        reclaim_storm_every: Some(500),
        reclaim_storm_frames: 64,
        swap_out_every: Some(900),
        daemon_threshold: Some(0.05),
        daemon_restore_to: Some(0.1),
    }
}

fn observed(alloc: AllocatorKind, seed: u64, memo: bool, faults: Option<FaultPlan>) -> ObservedRun {
    let mut scenario = Scenario::new(BenchId::Gcc)
        .machine(MachineConfig::paper(1, 128))
        .allocator(alloc)
        .measure_ops(2_000)
        .seed(seed)
        .memo(memo);
    if let Some(plan) = faults {
        scenario = scenario.faults(plan);
    }
    scenario.run_observed(ObsConfig::enabled(500))
}

fn assert_runs_identical(on: &ObservedRun, off: &ObservedRun, ctx: &str) {
    assert_eq!(on.metrics, off.metrics, "{ctx}: metrics diverge");
    assert_eq!(on.series, off.series, "{ctx}: epoch series diverge");
    assert_eq!(on.snapshot, off.snapshot, "{ctx}: snapshots diverge");
    assert_eq!(on.events, off.events, "{ctx}: event traces diverge");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Memo-on ≡ memo-off for random seeds, every registry policy, with
    /// and without a live fault plan.
    #[test]
    fn memoized_run_is_bit_identical_to_naive(
        seed in 0u64..1_000,
        policy_idx in 0usize..POLICIES.len(),
        with_faults in any::<bool>(),
    ) {
        let alloc = POLICIES[policy_idx];
        let faults = with_faults.then(live_plan);
        let on = observed(alloc, seed, true, faults);
        let off = observed(alloc, seed, false, faults);
        assert_runs_identical(&on, &off, &format!("{alloc}/seed {seed}/faults {with_faults}"));
    }
}

/// The equivalence must hold identically under the worker pool: memo-on and
/// memo-off runs of the same seeds agree with each other *and* with their
/// serial counterparts at VMSIM_THREADS ∈ {1, 4}.
#[test]
fn memo_equivalence_is_thread_count_invariant() {
    let seeds: [u64; 3] = [7, 113, 611];
    let sweep = |par: Parallelism, memo: bool| {
        vmsim_sim::parallel::run_indexed(par, seeds.len(), move |i| {
            observed(AllocatorKind::PteMagnet, seeds[i], memo, Some(live_plan()))
        })
    };
    let serial_on = sweep(Parallelism::Serial, true);
    let serial_off = sweep(Parallelism::Serial, false);
    let pooled_on = sweep(Parallelism::Threads(4), true);
    let pooled_off = sweep(Parallelism::Threads(4), false);
    for i in 0..seeds.len() {
        assert_runs_identical(&serial_on[i], &serial_off[i], "serial on/off");
        assert_runs_identical(&pooled_on[i], &pooled_off[i], "pooled on/off");
        assert_runs_identical(&serial_on[i], &pooled_on[i], "serial vs pooled");
    }
}

fn ptemagnet_machine() -> Machine {
    Machine::with_allocator(
        MachineConfig::paper(1, 64),
        ptemagnet::registry::resolve("ptemagnet").expect("registered"),
    )
}

/// A scheduled reclaim storm fires `clear_memos`: the signatures captured
/// before the storm must not replay afterwards.
#[test]
fn reclaim_storm_clears_memo() {
    let mut m = ptemagnet_machine();
    m.install_faults(
        FaultPlan {
            reclaim_storm_every: Some(4),
            reclaim_storm_frames: 32,
            ..FaultPlan::default()
        },
        0,
    );
    let pid = m.guest_mut().spawn();
    let va = m.guest_mut().mmap(pid, 1).unwrap();
    let clears_start = m.memo_stats().clears;
    for _ in 0..8 {
        m.touch(0, pid, va, false).unwrap();
    }
    assert!(
        m.memo_stats().clears >= clears_start + 2,
        "each storm clears the memo tables (clears: {:?})",
        m.memo_stats()
    );
}

/// A host swap-out targeting a reserved-unused frame reclaims the covering
/// reservation and must drop memoized signatures with it.
#[test]
fn swap_out_clears_memo() {
    let mut m = ptemagnet_machine();
    m.install_faults(
        FaultPlan {
            swap_out_every: Some(4),
            ..FaultPlan::default()
        },
        0,
    );
    let pid = m.guest_mut().spawn();
    // One touched page leaves seven reserved-unused frames in its group —
    // the swap-out trigger needs a reserved frame to target.
    let va = m.guest_mut().mmap(pid, 1).unwrap();
    let clears_start = m.memo_stats().clears;
    for _ in 0..8 {
        m.touch(0, pid, va, false).unwrap();
    }
    assert!(
        m.memo_stats().clears > clears_start,
        "a fired swap-out clears the memo tables (stats: {:?})",
        m.memo_stats()
    );
}

/// THP split (partial munmap of a huge mapping demotes it) changes existing
/// translations of the process: memoized entries must revalidate, not
/// replay stale.
#[test]
fn thp_split_invalidates_memo() {
    let mut m = Machine::with_allocator(
        MachineConfig::paper(1, 64),
        ptemagnet::registry::resolve("thp").expect("registered"),
    );
    let pid = m.guest_mut().spawn();
    // Two aligned 2 MB regions so a huge mapping can be installed.
    let va = m.guest_mut().mmap(pid, 2 * PT_ENTRIES).unwrap();
    let region =
        GuestVirtAddr::new((va.raw() + (PT_ENTRIES * 4096 - 1)) & !(PT_ENTRIES * 4096 - 1));
    let first = m.touch(0, pid, region, false).unwrap();
    assert!(first.faulted, "first touch faults the huge mapping in");
    let probe = GuestVirtAddr::new(region.raw() + 3 * 4096);
    m.touch(0, pid, probe, false).unwrap();
    m.touch(0, pid, probe, false).unwrap();
    let hits_before = m.memo_stats().hits;
    m.touch(0, pid, probe, false).unwrap();
    assert!(m.memo_stats().hits > hits_before, "warm touch replays");
    // Partial munmap elsewhere in the region: the huge mapping splits, so
    // every memoized translation of the process is suspect.
    m.munmap(pid, region.page(), 1).unwrap();
    let hits_after_split = m.memo_stats().hits;
    m.touch(0, pid, probe, false).unwrap();
    assert_eq!(
        m.memo_stats().hits,
        hits_after_split,
        "post-split touch must revalidate, not replay a stale signature"
    );
}
