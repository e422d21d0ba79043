//! The memory-pressure reclamation daemon (paper §4.3).
//!
//! Like the kernel's `swappiness`-style thresholds, a configurable
//! free-memory threshold triggers a daemon that walks the PaRT of victim
//! processes, returning reserved-but-unused frames to the buddy allocator
//! until consumption drops below the threshold. Reclamation is a plain
//! `free()` — no page-table updates, no TLB flushes, no page locking — so it
//! cannot cause the latency anomalies of THP/superpage demotion.

use serde::{Deserialize, Serialize};
use vmsim_os::GuestOs;

/// Configuration and driver for reservation reclamation.
///
/// # Examples
///
/// ```
/// use ptemagnet::{ReclaimDaemon, ReservationAllocator};
/// use vmsim_os::GuestOs;
///
/// let mut guest = GuestOs::new(1024, Box::new(ReservationAllocator::new()));
/// let daemon = ReclaimDaemon::new(0.1);
/// // Plenty of free memory: the daemon stays idle.
/// assert_eq!(daemon.run(&mut guest), 0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReclaimDaemon {
    /// Wake the daemon when the free fraction of guest memory falls below
    /// this value (e.g. 0.1 = reclaim when less than 10 % is free).
    pub threshold: f64,
    /// Keep reclaiming until the free fraction reaches this value
    /// (hysteresis; must be ≥ `threshold`).
    pub restore_to: f64,
}

impl ReclaimDaemon {
    /// Creates a daemon with the given wake threshold and 2× hysteresis.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= threshold <= 1.0`.
    pub fn new(threshold: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold must be in [0,1]"
        );
        Self {
            threshold,
            restore_to: (threshold * 2.0).min(1.0),
        }
    }

    /// Runs one daemon pass against the guest OS: if free memory is below
    /// the threshold, drains reservations until `restore_to` is reached or
    /// no reserved-unused memory remains. Returns frames reclaimed.
    pub fn run(&self, guest: &mut GuestOs) -> u64 {
        if guest.buddy().free_fraction() >= self.threshold {
            return 0;
        }
        let total = guest.buddy().total_frames();
        let want_free = (self.restore_to * total as f64) as u64;
        let have_free = guest.buddy().free_frames();
        let target = want_free.saturating_sub(have_free);
        if target == 0 {
            return 0;
        }
        guest.reclaim_reservations(target)
    }
}

impl Default for ReclaimDaemon {
    /// A daemon that wakes below 10 % free memory.
    fn default() -> Self {
        Self::new(0.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReservationAllocator;
    use vmsim_buddy::FragmentationIndex;
    use vmsim_types::GuestVirtPage;

    #[test]
    fn idle_above_threshold() {
        let mut guest = GuestOs::new(1024, Box::new(ReservationAllocator::new()));
        let daemon = ReclaimDaemon::new(0.1);
        assert_eq!(daemon.run(&mut guest), 0);
    }

    #[test]
    fn reclaims_unused_reservation_frames_under_pressure() {
        let mut guest = GuestOs::new(256, Box::new(ReservationAllocator::new()));
        let pid = guest.spawn();
        // Touch one page in each of 29 groups: 29 × 8 = 232 frames reserved
        // (plus PT overhead), leaving well under 10% free.
        let va = guest.mmap(pid, 29 * 8).unwrap();
        for g in 0..29 {
            guest
                .page_fault(pid, GuestVirtPage::new(va.page().raw() + g * 8))
                .unwrap();
        }
        assert!(guest.buddy().free_fraction() < 0.1);
        let daemon = ReclaimDaemon::new(0.1);
        let reclaimed = daemon.run(&mut guest);
        assert!(reclaimed > 0);
        assert!(guest.buddy().free_fraction() >= 0.1);
        // Mapped pages were untouched: rss unchanged.
        assert_eq!(guest.process(pid).unwrap().rss_pages, 29);
    }

    /// The §4.3 threshold sweep under the every-8th-page adversary: a
    /// 4096-frame guest whose 3840-page mmap takes one fault per 8-page
    /// group (480 faults), so nearly every reserved frame is unused. A
    /// higher threshold reclaims more, and the freed single frames leave
    /// free memory ever less usable for order-3 chunks (§4.4).
    #[test]
    fn threshold_sweep_reclaims_more_and_fragments_free_memory() {
        let mut unusable = Vec::new();
        for (threshold, expected) in [
            (0.05, 0),
            (0.10, 574),
            (0.25, 1806),
            (0.50, 3360),
            (0.90, 3360),
        ] {
            let mut guest = GuestOs::new(4096, Box::new(ReservationAllocator::new()));
            let pid = guest.spawn();
            let va = guest.mmap(pid, 3840).unwrap();
            for g in 0..480 {
                guest
                    .page_fault(pid, GuestVirtPage::new(va.page().raw() + g * 8))
                    .unwrap();
            }
            let reclaimed = ReclaimDaemon::new(threshold).run(&mut guest);
            assert_eq!(reclaimed, expected, "threshold {threshold}");
            unusable.push(FragmentationIndex::measure(guest.buddy(), 3).unusable_fraction());
        }
        assert!(
            unusable.windows(2).all(|w| w[0] <= w[1]),
            "order-3 unusable fraction never decreases: {unusable:?}"
        );
        assert!(unusable[0] < 0.05 && unusable[4] > 0.9, "{unusable:?}");
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn bad_threshold_rejected() {
        ReclaimDaemon::new(1.5);
    }
}
