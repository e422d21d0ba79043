//! Model-checked interleaving proofs for the lock-free PaRT.
//!
//! Compiled only under the `model-check` feature, which routes the PaRT's
//! structural atomics through the vendored loom stub: every load/store/CAS
//! becomes a scheduling point, and `loom::model` explores the bounded space
//! of thread interleavings deterministically. Serial set-up before
//! `loom::thread::spawn` contributes no branching (one runnable thread has
//! one schedule), so each test pre-populates its table cheaply and then
//! races exactly the transition it targets:
//!
//! * CAS **install** (two faulting threads racing an empty group),
//! * fused **retire** (two threads granting the last two pages),
//! * the **order-0 install**, which retires its one-page group at once,
//! * **release vs. take** (entry deletion racing a new fault),
//! * **reclaim** (leaf pruning racing an install into the pruned group),
//! * **harvest** (the reclaim daemon's [`PaRt::drain_unused`] racing a
//!   fault, a release, and the fused final-grant retire — no frame may be
//!   both granted and harvested, and live pages are never drained).
//!
//! Install and retire run at group order 3 (eight pages) and at order 4,
//! where the live mask fills all 16 bits.
//!
//! `naive_read_then_write_install_is_caught` and
//! `naive_harvest_blind_store_is_caught` are the negative controls: each
//! re-implements one path with its CAS replaced by the naive
//! load-then-store and proves the checker finds the double-install /
//! double-ownership schedule — i.e. these tests would go red if the real
//! PaRT's install or harvest CAS were weakened the same way
//! (`install_race_has_a_single_winner` and
//! `harvest_race_with_install_conserves_frames` are the same races against
//! the real table).
//!
//! Run with: `cargo test -p ptemagnet --features model-check`.

#![cfg(feature = "model-check")]

use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering as StdOrdering};
use std::sync::Arc;

use loom::sync::atomic::{AtomicU64, Ordering};
use ptemagnet::{PaRt, ReleaseOutcome, TakeOutcome};
use vmsim_types::GuestFrame;

fn frame_of(out: TakeOutcome) -> u64 {
    match out {
        TakeOutcome::FromReservation(f) | TakeOutcome::FromNewReservation(f) => f.raw(),
        TakeOutcome::Unavailable => panic!("grant unexpectedly unavailable"),
    }
}

/// Two threads fault into the same empty group with distinct chunk
/// factories. Exactly one install may win; the loser's chunk must be parked
/// in the spare pool, both grants must come from the winning chunk, and no
/// frame may be granted twice — under every interleaving, at eight- and
/// sixteen-page groups.
#[test]
fn install_race_has_a_single_winner() {
    for order in [3, 4] {
        let pages = 1u64 << order;
        loom::model(move || {
            let part = Arc::new(PaRt::with_order(order));
            let calls = Arc::new(StdAtomicU64::new(0));
            let part2 = Arc::clone(&part);
            let calls2 = Arc::clone(&calls);
            let t = loom::thread::spawn(move || {
                frame_of(part2.take_or_install(3, 1, || {
                    calls2.fetch_add(1, StdOrdering::Relaxed);
                    Some(GuestFrame::new(pages))
                }))
            });
            let a = frame_of(part.take_or_install(3, 0, || {
                calls.fetch_add(1, StdOrdering::Relaxed);
                Some(GuestFrame::new(2 * pages))
            }));
            let b = t.join().unwrap();
            assert_ne!(a, b, "no frame granted twice");
            let s = part.stats();
            assert_eq!(s.installs, 1, "exactly one install wins");
            assert_eq!(s.hits, 1, "the loser is served from the winner's entry");
            assert_eq!(s.live_entries, 1);
            assert_eq!(s.unused_frames, pages - 2);
            // Both grants come from the single tracked chunk.
            let res = part.peek(3).expect("entry live");
            assert_eq!(res.live, 0b11);
            assert_eq!(a, res.base.raw(), "offset 0 grant");
            assert_eq!(b, res.base.raw() + 1, "offset 1 grant");
            // Chunk conservation: every chunk the factories allocated is
            // either the installed one or parked in the spare pool — never
            // leaked.
            assert_eq!(
                calls.load(StdOrdering::Relaxed),
                s.installs + part.spare_chunks().len() as u64,
                "allocated chunks = installs + parked spares"
            );
        });
    }
}

/// Two threads grant the last two pages of a nearly-full group. Whichever
/// CAS completes the mask retires the entry in the same step: retirement
/// must happen exactly once and the entry must be gone afterwards — for the
/// 8-bit mask and for the full 16-bit one.
#[test]
fn concurrent_final_grants_retire_exactly_once() {
    for order in [3, 4] {
        let pages = 1u64 << order;
        loom::model(move || {
            let part = Arc::new(PaRt::with_order(order));
            part.take_or_install(1, 0, || Some(GuestFrame::new(0)));
            for off in 1..pages - 2 {
                part.take_or_install(1, off, || panic!("entry exists"));
            }
            assert_eq!(part.peek(1).expect("entry live").unused_count(), 2);
            let part2 = Arc::clone(&part);
            let t = loom::thread::spawn(move || {
                frame_of(part2.take_or_install(1, pages - 2, || unreachable!()))
            });
            let a = frame_of(part.take_or_install(1, pages - 1, || unreachable!()));
            let b = t.join().unwrap();
            assert_eq!(
                (a, b),
                (pages - 1, pages - 2),
                "grants come from the reserved chunk"
            );
            let s = part.stats();
            assert_eq!(s.retired_full, 1, "the full entry retires exactly once");
            assert_eq!(s.live_entries, 0);
            assert_eq!(s.unused_frames, 0);
            assert!(part.peek(1).is_none(), "retired entry is gone");
        });
    }
}

/// At order 0 a group is one page, so an install grants the whole group:
/// it retires in the same step and the entry is never published. Two
/// threads faulting the same one-page group therefore each install and
/// retire their own chunk, under every interleaving — nothing is shared,
/// parked or left behind.
#[test]
fn order_zero_install_retires_at_once() {
    loom::model(|| {
        let part = Arc::new(PaRt::with_order(0));
        let part2 = Arc::clone(&part);
        let t = loom::thread::spawn(move || {
            frame_of(part2.take_or_install(9, 0, || Some(GuestFrame::new(8))))
        });
        let a = frame_of(part.take_or_install(9, 0, || Some(GuestFrame::new(16))));
        let b = t.join().unwrap();
        assert_eq!((a, b), (16, 8), "each fault gets its own chunk");
        let s = part.stats();
        assert_eq!(s.installs, 2, "both faults install");
        assert_eq!(s.retired_full, 2, "and both installs retire at once");
        assert_eq!(s.hits, 0);
        assert_eq!(s.live_entries, 0);
        assert_eq!(s.unused_frames, 0);
        assert!(part.peek(9).is_none(), "a full group is never published");
        assert!(part.spare_chunks().is_empty(), "no install lost a race");
    });
}

/// A release of the last live page (which deletes the entry and returns the
/// whole chunk) races a fault into the same group. Either the fault hits
/// the still-live entry first, or it faults into a dead group and installs
/// fresh — both must leave the accounting exactly consistent, with no frame
/// lost or double-owned.
#[test]
fn release_race_with_take_conserves_frames() {
    loom::model(|| {
        let part = Arc::new(PaRt::new());
        part.take_or_install(2, 0, || Some(GuestFrame::new(8)));
        let part2 = Arc::clone(&part);
        let t =
            loom::thread::spawn(move || part2.take_or_install(2, 1, || Some(GuestFrame::new(16))));
        let released = part.release(2, 0);
        let took = t.join().unwrap();
        let s = part.stats();
        match took {
            // The fault hit the original entry before the release deleted
            // it, so the release only dropped page 0 back into a still-live
            // reservation.
            TakeOutcome::FromReservation(f) => {
                assert_eq!(f.raw(), 9);
                match released {
                    ReleaseOutcome::Released {
                        entry_deleted,
                        unused_frames,
                    } => {
                        assert!(!entry_deleted, "entry still has page 1 live");
                        assert!(unused_frames.is_empty());
                    }
                    other => panic!("tracked release, got {other:?}"),
                }
                assert_eq!(part.peek(2).expect("entry live").live, 1 << 1);
            }
            // The release deleted the entry first (returning all 8 frames),
            // so the fault installed a fresh chunk.
            TakeOutcome::FromNewReservation(f) => {
                assert_eq!(f.raw(), 17);
                match released {
                    ReleaseOutcome::Released {
                        entry_deleted,
                        unused_frames,
                    } => {
                        assert!(entry_deleted);
                        assert_eq!(unused_frames.len(), 8, "whole chunk returned");
                    }
                    other => panic!("tracked release, got {other:?}"),
                }
                assert_eq!(part.peek(2).expect("entry live").base.raw(), 16);
            }
            TakeOutcome::Unavailable => panic!("factory always supplies a chunk"),
        }
        // Both orders end with one live entry holding one live page.
        assert_eq!(s.live_entries, 1);
        assert_eq!(s.unused_frames, 7);
    });
}

/// Epoch reclamation racing an install: one thread prunes the empty leaf
/// left behind by a deleted entry (CAS to `RETIRED`, unlink, deferred free)
/// while another faults into that same group. The install must never be
/// swallowed by the pruner — it either beats the `RETIRED` transition or
/// re-descends into a fresh leaf.
#[test]
fn prune_never_swallows_a_concurrent_install() {
    loom::model(|| {
        let part = Arc::new(PaRt::new());
        // Leave group 4 with an empty (prunable) leaf behind.
        part.take_or_install(4, 0, || Some(GuestFrame::new(8)));
        let deleted = part.release(4, 0);
        assert!(matches!(
            deleted,
            ReleaseOutcome::Released {
                entry_deleted: true,
                ..
            }
        ));
        let part2 = Arc::clone(&part);
        let t = loom::thread::spawn(move || part2.prune_empty());
        let got = frame_of(part.take_or_install(4, 2, || Some(GuestFrame::new(16))));
        t.join().unwrap();
        assert_eq!(got, 18);
        let res = part
            .peek(4)
            .expect("the installed reservation must survive pruning");
        assert_eq!(res.base.raw(), 16);
        assert_eq!(res.live, 1 << 2);
        assert_eq!(part.live_entries(), 1);
        assert_eq!(part.unused_frames(), 7);
    });
}

/// The reclaim daemon's harvest (`drain_unused`) races a fault into the
/// only reservation with unused frames. Either the fault's grant lands
/// before the harvest CAS (and the harvested set excludes the granted
/// page), or the harvest destroys the entry first and the fault installs a
/// fresh chunk. In every interleaving no frame is both granted and
/// harvested, no live page is drained, and the accounting stays exact.
#[test]
fn harvest_race_with_install_conserves_frames() {
    loom::model(|| {
        let part = Arc::new(PaRt::new());
        // Group 5: base 8, page 0 live, pages 1..8 unused.
        part.take_or_install(5, 0, || Some(GuestFrame::new(8)));
        let part2 = Arc::clone(&part);
        let t =
            loom::thread::spawn(move || part2.take_or_install(5, 3, || Some(GuestFrame::new(16))));
        let mut harvested: Vec<u64> = Vec::new();
        let drained = part.drain_unused(|f| {
            harvested.push(f.raw());
            true
        });
        let took = t.join().unwrap();
        assert_eq!(drained, harvested.len() as u64);
        let mut dedup = harvested.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), harvested.len(), "no frame drained twice");
        assert!(!harvested.contains(&8), "live page 0 must never be drained");
        match took {
            // The grant landed before the harvest CAS: the harvest re-read
            // the word and excluded the now-live page 3.
            TakeOutcome::FromReservation(f) => {
                assert_eq!(f.raw(), 11);
                assert_eq!(drained, 6);
                assert!(
                    !harvested.contains(&11),
                    "granted frame must not be harvested"
                );
                assert_eq!(part.live_entries(), 0);
                assert_eq!(part.unused_frames(), 0);
                assert!(part.peek(5).is_none(), "harvest deleted the entry");
            }
            // The harvest destroyed the reservation first, so the fault
            // installed a fresh chunk (possibly re-descending past the
            // pruned leaf).
            TakeOutcome::FromNewReservation(f) => {
                assert_eq!(f.raw(), 19);
                assert_eq!(drained, 7, "all seven unused frames drained");
                assert_eq!(part.live_entries(), 1);
                assert_eq!(part.unused_frames(), 7);
                let res = part.peek(5).expect("fresh entry survives the prune");
                assert_eq!(res.base.raw(), 16);
                assert_eq!(res.live, 1 << 3);
            }
            TakeOutcome::Unavailable => panic!("factory always supplies a chunk"),
        }
    });
}

/// Harvest races a release of one of two live pages. The released page
/// either rejoins the unused pool in time to be harvested (drained exactly
/// once) or the harvest deletes the entry first and the release reports the
/// page untracked. The page that stays live (frame 9) must never be
/// drained under any interleaving.
#[test]
fn harvest_race_with_release_never_frees_a_live_page() {
    loom::model(|| {
        let part = Arc::new(PaRt::new());
        // Group 6: base 8, pages 0 and 1 live, six unused frames.
        part.take_or_install(6, 0, || Some(GuestFrame::new(8)));
        part.take_or_install(6, 1, || panic!("entry exists"));
        let part2 = Arc::clone(&part);
        let t = loom::thread::spawn(move || part2.release(6, 0));
        let mut harvested: Vec<u64> = Vec::new();
        let drained = part.drain_unused(|f| {
            harvested.push(f.raw());
            true
        });
        let released = t.join().unwrap();
        assert_eq!(drained, harvested.len() as u64);
        let mut dedup = harvested.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), harvested.len(), "no frame drained twice");
        assert!(!harvested.contains(&9), "live page 1 must never be drained");
        match released {
            // The harvest destroyed the entry before the release reached
            // it: page 0 stays mapped, the release falls back to the
            // default kernel path.
            ReleaseOutcome::NotTracked => {
                assert_eq!(drained, 6);
                assert!(!harvested.contains(&8), "page 0 was still live");
            }
            // The release dropped page 0 back into the pool first; the
            // harvest re-read the word and drained all seven unused frames,
            // page 0's included — each exactly once.
            ReleaseOutcome::Released {
                entry_deleted,
                unused_frames,
            } => {
                assert!(!entry_deleted, "page 1 keeps the entry live");
                assert!(unused_frames.is_empty());
                assert_eq!(drained, 7);
                assert!(harvested.contains(&8), "released page rejoins the pool");
            }
        }
        // Both orders end with the entry harvested and the books closed.
        assert_eq!(part.live_entries(), 0);
        assert_eq!(part.unused_frames(), 0);
        assert!(part.peek(6).is_none());
    });
}

/// Harvest races the grant of a group's last unused page (which fuses with
/// retirement). Either the grant wins — the entry retires full and the
/// harvest finds nothing — or the harvest destroys the reservation first
/// and the fault installs a fresh chunk. The contested frame (15) is
/// granted or harvested, never both.
#[test]
fn harvest_race_with_final_grant_retires_or_drains_once() {
    loom::model(|| {
        let part = Arc::new(PaRt::new());
        // Group 7: pages 0..7 live, exactly one unused frame (15) left.
        part.take_or_install(7, 0, || Some(GuestFrame::new(8)));
        for off in 1..7 {
            part.take_or_install(7, off, || panic!("entry exists"));
        }
        let part2 = Arc::clone(&part);
        let t =
            loom::thread::spawn(move || part2.take_or_install(7, 7, || Some(GuestFrame::new(16))));
        let mut harvested: Vec<u64> = Vec::new();
        let drained = part.drain_unused(|f| {
            harvested.push(f.raw());
            true
        });
        let took = t.join().unwrap();
        let s = part.stats();
        match took {
            // The final grant completed the mask and retired the entry
            // before the harvest CAS: nothing left to drain.
            TakeOutcome::FromReservation(f) => {
                assert_eq!(f.raw(), 15);
                assert_eq!(drained, 0, "retired entry has nothing to harvest");
                assert!(harvested.is_empty());
                assert_eq!(s.retired_full, 1, "full entry retires exactly once");
                assert_eq!(s.live_entries, 0);
                assert_eq!(s.unused_frames, 0);
            }
            // The harvest took frame 15 first; the fault installed fresh
            // and no retirement happened.
            TakeOutcome::FromNewReservation(f) => {
                assert_eq!(f.raw(), 23);
                assert_eq!(harvested, vec![15]);
                assert_eq!(s.retired_full, 0);
                assert_eq!(s.live_entries, 1);
                assert_eq!(s.unused_frames, 7);
                assert_eq!(part.peek(7).expect("fresh entry").base.raw(), 16);
            }
            TakeOutcome::Unavailable => panic!("factory always supplies a chunk"),
        }
        assert!(part.peek(7).map_or(true, |r| r.base.raw() == 16));
    });
}

/// Negative control: the PaRT's install path with its CAS replaced by the
/// naive load-then-store. The checker must find the schedule where both
/// threads observe `EMPTY` and double-install, one overwriting the other —
/// proving this suite would catch that exact weakening of the real code.
#[test]
fn naive_read_then_write_install_is_caught() {
    const EMPTY: u64 = 0;
    fn pack(base: u64, live: u8) -> u64 {
        (base << 9) | (u64::from(live) << 1) | 1
    }

    let violated = loom::model_finds_violation(|| {
        let word = Arc::new(AtomicU64::new(EMPTY));
        let installs = Arc::new(StdAtomicU64::new(0));
        let grant = |word: &AtomicU64, installs: &StdAtomicU64, offset: u8, chunk: u64| -> u64 {
            let seen = word.load(Ordering::SeqCst);
            if seen == EMPTY {
                // BUG under test: publication by blind store. The real PaRT
                // uses compare_exchange(EMPTY, ..) here.
                word.store(pack(chunk, 1 << offset), Ordering::SeqCst);
                installs.fetch_add(1, StdOrdering::Relaxed);
                chunk + u64::from(offset)
            } else {
                let base = seen >> 9;
                let live = ((seen >> 1) & 0xff) as u8;
                word.store(pack(base, live | (1 << offset)), Ordering::SeqCst);
                base + u64::from(offset)
            }
        };
        let word2 = Arc::clone(&word);
        let installs2 = Arc::clone(&installs);
        let t = loom::thread::spawn(move || grant(&word2, &installs2, 1, 8));
        let a = grant(&word, &installs, 0, 16);
        let b = t.join().unwrap();
        assert_eq!(
            installs.load(StdOrdering::Relaxed),
            1,
            "a second chunk was installed over the first"
        );
        let final_word = word.load(Ordering::SeqCst);
        let base = final_word >> 9;
        let live = (final_word >> 1) & 0xff;
        assert_eq!(live, 0b11, "a grant was lost from the live mask");
        assert!(
            a / 8 * 8 == base && b / 8 * 8 == base,
            "a granted frame escaped the tracked reservation"
        );
    });
    assert!(
        violated,
        "the model checker must catch the naive install race"
    );
}

/// Negative control for the harvest path: a reclaim daemon that loads the
/// packed word, computes the unused frames from that stale snapshot, and
/// then publishes `EMPTY` with a blind store (the real `drain_unused`
/// CASes the loaded word and retries on failure). The checker must find
/// the schedule where a concurrent CAS grant lands between the harvester's
/// load and its store: the granted frame is then also collected as
/// "unused" — one frame, two owners.
#[test]
fn naive_harvest_blind_store_is_caught() {
    const EMPTY: u64 = 0;
    fn pack(base: u64, live: u8) -> u64 {
        (base << 9) | (u64::from(live) << 1) | 1
    }
    fn unpack(word: u64) -> (u64, u8) {
        (word >> 9, ((word >> 1) & 0xff) as u8)
    }

    let violated = loom::model_finds_violation(|| {
        // One leaf word: base 8, page 0 live, pages 1..8 unused.
        let word = Arc::new(AtomicU64::new(pack(8, 0b1)));
        let word2 = Arc::clone(&word);
        // A faithful CAS grant of offset 3, as the real take_or_install
        // performs it (install fresh if the entry was harvested away).
        let t = loom::thread::spawn(move || loop {
            let seen = word2.load(Ordering::SeqCst);
            if seen == EMPTY {
                if word2
                    .compare_exchange(EMPTY, pack(16, 1 << 3), Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    return 16 + 3;
                }
            } else {
                let (base, live) = unpack(seen);
                if word2
                    .compare_exchange(
                        seen,
                        pack(base, live | (1 << 3)),
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    )
                    .is_ok()
                {
                    return base + 3;
                }
            }
        });
        // BUG under test: harvest by load-then-blind-store. The real
        // drain_unused compare_exchanges the exact word it computed the
        // unused set from, so a grant racing in forces a re-read.
        let seen = word.load(Ordering::SeqCst);
        let mut harvested: Vec<u64> = Vec::new();
        if seen != EMPTY {
            let (base, live) = unpack(seen);
            for off in 0..8u64 {
                if live & (1 << off) == 0 {
                    harvested.push(base + off);
                }
            }
            word.store(EMPTY, Ordering::SeqCst);
        }
        let granted = t.join().unwrap();
        assert!(
            !harvested.contains(&granted),
            "a frame was both granted and harvested (double-owned)"
        );
    });
    assert!(
        violated,
        "the model checker must catch the naive harvest race"
    );
}
