//! Comparative baseline allocators: CA-paging-like best-effort contiguity
//! (related work, §7) and transparent huge pages (the "big hammer"
//! alternative §2.3 argues is avoided in production clouds).

use std::collections::HashMap;

use vmsim_os::{AllocCost, AllocGrant, GuestBuddy, GuestFrameAllocator, Pid};
use vmsim_types::{GuestFrame, GuestVirtPage, Result, PT_INDEX_BITS};

/// A CA-paging-like best-effort contiguity allocator (§7, Alverti et al.).
///
/// On each fault it *tries* to extend the process's previous allocation by
/// taking the neighbouring frame, falling back to a normal order-0
/// allocation when that frame is taken. Unlike PTEMagnet it reserves
/// nothing, so colocated allocation churn steals the neighbouring frames and
/// contiguity degrades with co-runner pressure — the comparison
/// `manifests/ablate_besteffort.json` quantifies.
#[derive(Clone, Debug, Default)]
pub struct CaPagingLike {
    /// Last frame granted per (process, contiguity goal): keyed by the vpn's
    /// predecessor so independent regions track independently.
    last_grant: HashMap<(Pid, u64), GuestFrame>,
    /// Successful neighbour extensions.
    extended: u64,
    /// Faults that fell back to arbitrary placement.
    fallback: u64,
}

impl CaPagingLike {
    /// Creates the allocator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Faults that successfully extended a contiguous run.
    pub fn extended(&self) -> u64 {
        self.extended
    }

    /// Faults that could not preserve contiguity.
    pub fn fallbacks(&self) -> u64 {
        self.fallback
    }
}

impl GuestFrameAllocator for CaPagingLike {
    fn name(&self) -> &'static str {
        "ca-paging-like"
    }

    fn allocate(
        &mut self,
        pid: Pid,
        vpn: GuestVirtPage,
        buddy: &mut GuestBuddy,
    ) -> Result<(GuestFrame, AllocCost)> {
        // If the preceding virtual page was recently granted a frame, try
        // the physically neighbouring frame to extend the run.
        if vpn.raw() > 0 {
            if let Some(&prev) = self.last_grant.get(&(pid, vpn.raw() - 1)) {
                let want = GuestFrame::new(prev.raw() + 1);
                if buddy.try_alloc_frame_at(want) {
                    self.extended += 1;
                    self.last_grant.remove(&(pid, vpn.raw() - 1));
                    self.last_grant.insert((pid, vpn.raw()), want);
                    return Ok((
                        want,
                        AllocCost {
                            buddy_calls: 1,
                            ..AllocCost::default()
                        },
                    ));
                }
            }
        }
        let gfn = buddy.alloc(0)?;
        self.fallback += 1;
        self.last_grant.insert((pid, vpn.raw()), gfn);
        Ok((
            gfn,
            AllocCost {
                buddy_calls: 1,
                ..AllocCost::default()
            },
        ))
    }

    fn free(
        &mut self,
        pid: Pid,
        vpn: GuestVirtPage,
        gfn: GuestFrame,
        buddy: &mut GuestBuddy,
    ) -> Result<()> {
        self.last_grant.remove(&(pid, vpn.raw()));
        buddy.free(gfn, 0)
    }
}

/// A transparent-huge-pages (THP=always) allocation policy (§2.3).
///
/// When the kernel reports that a 2 MB mapping is possible, try an order-9
/// buddy allocation and map the whole region at once; otherwise fall back
/// to 4 KB pages. When it succeeds, THP also yields host-PTE locality (512
/// contiguous guest frames) — but it pays 2 MB zeroing latency up front,
/// suffers internal fragmentation for sparsely touched regions, and stops
/// succeeding at all once physical memory is fragmented, which is exactly
/// why the paper's target clouds run with THP disabled.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThpAllocator {
    huge_allocs: u64,
    huge_failures: u64,
    small_allocs: u64,
}

impl ThpAllocator {
    /// log2 pages per huge mapping (x86 2 MB / 4 KB = 512 = 2^9).
    const HUGE_ORDER: u32 = PT_INDEX_BITS;

    /// Creates the allocator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Successful huge allocations.
    pub fn huge_allocs(&self) -> u64 {
        self.huge_allocs
    }

    /// Huge attempts that failed for lack of an order-9 block.
    pub fn huge_failures(&self) -> u64 {
        self.huge_failures
    }

    /// 4 KB allocations (non-candidates plus fallbacks).
    pub fn small_allocs(&self) -> u64 {
        self.small_allocs
    }
}

impl GuestFrameAllocator for ThpAllocator {
    fn name(&self) -> &'static str {
        "thp"
    }

    fn allocate(
        &mut self,
        _pid: Pid,
        _vpn: GuestVirtPage,
        buddy: &mut GuestBuddy,
    ) -> Result<(GuestFrame, AllocCost)> {
        let gfn = buddy.alloc(0)?;
        self.small_allocs += 1;
        Ok((
            gfn,
            AllocCost {
                buddy_calls: 1,
                ..AllocCost::default()
            },
        ))
    }

    fn allocate_grant(
        &mut self,
        pid: Pid,
        vpn: GuestVirtPage,
        huge_candidate: bool,
        buddy: &mut GuestBuddy,
    ) -> Result<(AllocGrant, AllocCost)> {
        if huge_candidate {
            match buddy.alloc(Self::HUGE_ORDER) {
                Ok(chunk) => {
                    // Frames may come back one by one after demotion.
                    buddy
                        .fragment_allocation(chunk, Self::HUGE_ORDER)
                        .expect("fresh chunk fragments");
                    self.huge_allocs += 1;
                    return Ok((
                        AllocGrant::Huge(chunk),
                        AllocCost {
                            buddy_calls: 1,
                            ..AllocCost::default()
                        },
                    ));
                }
                Err(_) => self.huge_failures += 1,
            }
        }
        let (gfn, cost) = self.allocate(pid, vpn, buddy)?;
        Ok((AllocGrant::Small(gfn), cost))
    }

    fn free(
        &mut self,
        _pid: Pid,
        _vpn: GuestVirtPage,
        gfn: GuestFrame,
        buddy: &mut GuestBuddy,
    ) -> Result<()> {
        buddy.free(gfn, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_faults_extend_contiguously() {
        let mut a = CaPagingLike::new();
        let mut buddy = GuestBuddy::new(256);
        let pid = Pid(1);
        let mut frames = Vec::new();
        for vpn in 0..8u64 {
            frames.push(
                a.allocate(pid, GuestVirtPage::new(vpn), &mut buddy)
                    .unwrap()
                    .0
                    .raw(),
            );
        }
        assert!(frames.windows(2).all(|w| w[1] == w[0] + 1));
        assert_eq!(a.extended(), 7);
    }

    #[test]
    fn interleaved_churn_breaks_contiguity() {
        // A co-runner grabbing frames between faults steals the neighbours —
        // best effort degrades where PTEMagnet would not.
        let mut a = CaPagingLike::new();
        let mut buddy = GuestBuddy::new(256);
        let app = Pid(1);
        let churn = Pid(2);
        let mut extended_broken = false;
        let mut churn_vpn = 1000u64;
        for vpn in 0..8u64 {
            let (f, _) = a
                .allocate(app, GuestVirtPage::new(vpn), &mut buddy)
                .unwrap();
            // Churn takes the next frames immediately.
            for _ in 0..2 {
                a.allocate(churn, GuestVirtPage::new(churn_vpn), &mut buddy)
                    .unwrap();
                churn_vpn += 2; // non-adjacent vpns: churn never extends
            }
            let _ = f;
        }
        if a.fallbacks() > 1 {
            extended_broken = true;
        }
        assert!(extended_broken, "churn must force fallbacks");
    }

    #[test]
    fn free_returns_frames() {
        let mut a = CaPagingLike::new();
        let mut buddy = GuestBuddy::new(64);
        let pid = Pid(1);
        let (f, _) = a.allocate(pid, GuestVirtPage::new(0), &mut buddy).unwrap();
        a.free(pid, GuestVirtPage::new(0), f, &mut buddy).unwrap();
        assert_eq!(buddy.free_frames(), 64);
    }

    #[test]
    fn thp_grants_huge_when_candidate() {
        let mut a = ThpAllocator::new();
        let mut buddy = GuestBuddy::new(1024);
        let (grant, _) = a
            .allocate_grant(Pid(1), GuestVirtPage::new(0), true, &mut buddy)
            .unwrap();
        match grant {
            AllocGrant::Huge(chunk) => assert_eq!(chunk.raw() % 512, 0),
            other => panic!("expected huge grant, got {other:?}"),
        }
        assert_eq!(buddy.free_frames(), 512);
        assert_eq!(a.huge_allocs(), 1);
    }

    #[test]
    fn thp_falls_back_without_candidate_or_memory() {
        let mut a = ThpAllocator::new();
        let mut buddy = GuestBuddy::new(1024);
        // Not a candidate: small page.
        let (grant, _) = a
            .allocate_grant(Pid(1), GuestVirtPage::new(0), false, &mut buddy)
            .unwrap();
        assert!(matches!(grant, AllocGrant::Small(_)));
        // Shred memory so no order-9 block exists: candidate fails over.
        let mut held = vec![];
        while let Ok(f) = buddy.alloc(8) {
            held.push(f);
        }
        let (grant, _) = a
            .allocate_grant(Pid(1), GuestVirtPage::new(512), true, &mut buddy)
            .unwrap();
        assert!(matches!(grant, AllocGrant::Small(_)));
        assert_eq!(a.huge_failures(), 1);
    }

    #[test]
    fn thp_frames_free_individually_after_demotion() {
        let mut a = ThpAllocator::new();
        let mut buddy = GuestBuddy::new(1024);
        let (grant, _) = a
            .allocate_grant(Pid(1), GuestVirtPage::new(0), true, &mut buddy)
            .unwrap();
        let AllocGrant::Huge(chunk) = grant else {
            panic!("huge expected");
        };
        for i in 0..512u64 {
            a.free(
                Pid(1),
                GuestVirtPage::new(i),
                GuestFrame::new(chunk.raw() + i),
                &mut buddy,
            )
            .unwrap();
        }
        assert_eq!(buddy.free_frames(), 1024);
    }
}
