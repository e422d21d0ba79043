//! Property-based tests for the Page Reservation Table against a flat
//! reference model, plus multithreaded linearizability smoke checks.

use std::collections::HashMap;

use proptest::prelude::*;
use ptemagnet::{PaRt, ReleaseOutcome, TakeOutcome, MAX_GROUP_ORDER};
use vmsim_types::{GuestFrame, GROUP_PAGES};

#[derive(Clone, Debug)]
enum Op {
    Take { group: u64, offset: u64 },
    Release { group: u64, offset: u64 },
}

fn op_strategy(pages: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u64..24, 0..pages).prop_map(|(group, offset)| Op::Take { group, offset }),
        2 => (0u64..24, 0..pages).prop_map(|(group, offset)| Op::Release { group, offset }),
    ]
}

/// A group order from 0 to [`MAX_GROUP_ORDER`] and operations on groups of
/// that many pages.
fn ordered_ops() -> impl Strategy<Value = (u32, Vec<Op>)> {
    (0..=MAX_GROUP_ORDER).prop_flat_map(|order| {
        (
            Just(order),
            prop::collection::vec(op_strategy(1 << order), 1..250),
        )
    })
}

/// Flat model of one reservation: base and live mask (non-live pages are
/// owned by the reservation).
#[derive(Clone, Copy, Debug)]
struct ModelRes {
    base: u64,
    live: u16,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn part_matches_flat_model((order, ops) in ordered_ops()) {
        let part = PaRt::with_order(order);
        let pages = 1u64 << order;
        let full = ((1u32 << pages) - 1) as u16;
        let mut model: HashMap<u64, ModelRes> = HashMap::new();
        let mut next_chunk = 0u64;

        for op in ops {
            match op {
                Op::Take { group, offset } => {
                    let bit = 1u16 << offset;
                    let model_entry = model.get(&group).copied();
                    // Skip operations the OS contract forbids (double
                    // grant of a live page).
                    if model_entry.is_some_and(|m| m.live & bit != 0) {
                        continue;
                    }
                    let chunk_base = next_chunk;
                    let out = part.take_or_install(group, offset, || {
                        Some(GuestFrame::new(chunk_base))
                    });
                    match model_entry {
                        Some(mut m) => {
                            prop_assert_eq!(
                                out,
                                TakeOutcome::FromReservation(GuestFrame::new(m.base + offset))
                            );
                            m.live |= bit;
                            if m.live == full {
                                model.remove(&group);
                            } else {
                                model.insert(group, m);
                            }
                        }
                        None => {
                            prop_assert_eq!(
                                out,
                                TakeOutcome::FromNewReservation(GuestFrame::new(
                                    chunk_base + offset
                                ))
                            );
                            next_chunk += pages;
                            // A one-page group is full at install and is
                            // never published.
                            if bit != full {
                                model.insert(
                                    group,
                                    ModelRes {
                                        base: chunk_base,
                                        live: bit,
                                    },
                                );
                            }
                        }
                    }
                }
                Op::Release { group, offset } => {
                    let bit = 1u16 << offset;
                    let out = part.release(group, offset);
                    match model.get(&group).copied() {
                        Some(mut m) if m.live & bit != 0 => {
                            m.live &= !bit;
                            if m.live == 0 {
                                // Entry death returns the whole chunk.
                                let expected_unused: Vec<u64> =
                                    (0..pages).map(|i| m.base + i).collect();
                                match out {
                                    ReleaseOutcome::Released {
                                        unused_frames,
                                        entry_deleted,
                                    } => {
                                        prop_assert!(entry_deleted);
                                        let got: Vec<u64> =
                                            unused_frames.iter().map(|f| f.raw()).collect();
                                        prop_assert_eq!(got, expected_unused);
                                    }
                                    other => prop_assert!(false, "expected release, got {other:?}"),
                                }
                                model.remove(&group);
                            } else {
                                prop_assert_eq!(
                                    out,
                                    ReleaseOutcome::Released {
                                        unused_frames: vec![],
                                        entry_deleted: false
                                    }
                                );
                                model.insert(group, m);
                            }
                        }
                        _ => {
                            prop_assert_eq!(out, ReleaseOutcome::NotTracked);
                        }
                    }
                }
            }

            // Gauges agree with the model at every step.
            prop_assert_eq!(part.live_entries() as usize, model.len());
            let model_unused: u64 = model
                .values()
                .map(|m| pages - u64::from(m.live.count_ones()))
                .sum();
            prop_assert_eq!(part.unused_frames(), model_unused);
        }
    }

    #[test]
    fn peek_agrees_with_grants(groups in prop::collection::vec(0u64..16, 1..40)) {
        let part = PaRt::new();
        let mut expected: HashMap<u64, u64> = HashMap::new();
        let mut next = 0u64;
        for g in groups {
            if expected.contains_key(&g) {
                continue;
            }
            let base = next;
            part.take_or_install(g, 0, || Some(GuestFrame::new(base)));
            expected.insert(g, base);
            next += GROUP_PAGES;
        }
        for (g, base) in expected {
            let res = part.peek(g).unwrap();
            prop_assert_eq!(res.base, GuestFrame::new(base));
            prop_assert_eq!(res.live, 1);
        }
        prop_assert!(part.peek(999).is_none());
    }
}

#[test]
fn concurrent_mixed_take_release_is_consistent() {
    // Threads hammer disjoint offsets of shared groups with take+release
    // cycles; afterwards the table must be empty and balanced.
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let part = Arc::new(PaRt::new());
    let next = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for t in 0u64..8 {
            let part = Arc::clone(&part);
            let next = Arc::clone(&next);
            s.spawn(move || {
                for round in 0..200u64 {
                    let group = round % 16;
                    let out = part.take_or_install(group, t, || {
                        Some(GuestFrame::new(
                            next.fetch_add(GROUP_PAGES, Ordering::Relaxed),
                        ))
                    });
                    assert!(!matches!(out, TakeOutcome::Unavailable));
                    part.release(group, t);
                }
            });
        }
    });
    // Every grant was released; entries may persist (partially granted) but
    // the live masks must all be clear — i.e. releasing them drains nothing
    // unexpected and no page is still considered live.
    let mut live_pages = 0u64;
    part.for_each(|_, res| live_pages += u64::from(res.live.count_ones()));
    assert_eq!(live_pages, 0);
}
