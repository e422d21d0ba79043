//! The locking ablation: a PaRT behind one global lock.
//!
//! The paper fixes two design parameters with geometric arguments: the
//! 8-page reservation granularity (§4.1: eight 8-byte PTEs fill one 64-byte
//! cache line) and fine-grained PaRT locking (§4.2). The granularity sweep
//! needs no type of its own: `granular:N` resolves to
//! [`crate::ReservationAllocator::granular`] at group order log2 N, swept by
//! `manifests/ablate_granularity.json`. The locking choice is quantified
//! here: `vmsim perf` times [`GlobalLockPart`] next to the lock-free
//! [`PaRt`] (`part_global_lock_*` vs `part_concurrent_*` kernels).

use parking_lot::Mutex;
use vmsim_types::GuestFrame;

use crate::part::{PaRt, ReleaseOutcome, TakeOutcome};

/// A PaRT with one global lock instead of per-node locks, for the locking
/// ablation (§4.2 argues fine-grained locking is needed for concurrently
/// faulting threads).
///
/// Wraps the real [`PaRt`] behind a single [`Mutex`], serializing all
/// operations the way a naive implementation would.
#[derive(Debug, Default)]
pub struct GlobalLockPart {
    inner: Mutex<PaRt>,
}

impl GlobalLockPart {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fully serialized [`PaRt::take_or_install`].
    pub fn take_or_install(
        &self,
        group: u64,
        offset: u64,
        chunk_factory: impl FnOnce() -> Option<GuestFrame>,
    ) -> TakeOutcome {
        self.inner
            .lock()
            .take_or_install(group, offset, chunk_factory)
    }

    /// Fully serialized [`PaRt::release`].
    pub fn release(&self, group: u64, offset: u64) -> ReleaseOutcome {
        self.inner.lock().release(group, offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_lock_part_matches_part_semantics() {
        let g = GlobalLockPart::new();
        let r = g.take_or_install(3, 1, || Some(GuestFrame::new(8)));
        assert_eq!(r, TakeOutcome::FromNewReservation(GuestFrame::new(9)));
        let r = g.take_or_install(3, 2, || None);
        assert_eq!(r, TakeOutcome::FromReservation(GuestFrame::new(10)));
        match g.release(3, 1) {
            ReleaseOutcome::Released { entry_deleted, .. } => assert!(!entry_deleted),
            other => panic!("unexpected {other:?}"),
        }
    }
}
