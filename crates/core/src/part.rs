//! The Page Reservation Table (PaRT): a lock-free concurrent 4-level radix
//! tree.
//!
//! PaRT tracks one entry per aligned virtual group that currently has a
//! physical reservation (paper §4.2). A group is 2^order pages, with the
//! order fixed when the table is built: 3 (eight pages, one cache line of
//! PTEs) for PTEMagnet, 0 to 4 for the granularity ablation. A leaf packs the
//! whole reservation — base frame plus the live mask, one bit per page —
//! into a single [`AtomicU64`] word, so grants, releases and retirement are
//! one CAS each and threads faulting into *disjoint groups never contend at
//! all*, satisfying (and strengthening) the paper's fine-grained-locking
//! scalability requirement:
//!
//! * **Atomic slot publication.** Interior nodes and leaves are published
//!   into their parent slot with a `null → ptr` CAS; a racing creator frees
//!   its candidate and adopts the winner's. Interior nodes are never
//!   reclaimed while the table lives.
//! * **CAS install, fused retire.** Installing a reservation is one
//!   `EMPTY → packed` CAS on the leaf word; granting the last page of a
//!   group CASes straight to `EMPTY`, so retirement can never be observed
//!   half-done and a fully-live group is never published. A thread that
//!   loses an install race parks its already-allocated chunk in a small
//!   internal spare pool, where the next install (or
//!   [`PaRt::drain_unused`]) picks it up — no frame is ever double-granted
//!   or leaked, and the public API is unchanged.
//! * **Epoch-style reclamation.** [`PaRt::drain_unused`] prunes empty leaf
//!   nodes: the word is CASed to a `RETIRED` sentinel, the leaf is unlinked
//!   from its parent slot, and the node itself is freed only after every
//!   operation pinned in the current or previous epoch has finished (a
//!   per-table three-bin epoch collector). Operations that encounter a
//!   `RETIRED` word help unlink it and re-descend.
//!
//! Under the `model-check` feature the structural atomics are routed through
//! the vendored loom stub (see `crate::sync`) and the install/retire/
//! reclaim paths are explored exhaustively over bounded schedules in
//! `tests/model_check.rs`.
//!
//! The tree is indexed by *group number* (virtual page number >> order),
//! nine bits per level, covering a 48-bit virtual address space at every
//! order.

use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering as StdOrdering};
use std::sync::Arc;

use parking_lot::Mutex;
use vmsim_types::{GuestFrame, GROUP_SHIFT};

use crate::sync::{scan_load, AtomicPtr, AtomicU64, Ordering};

/// Fan-out of each radix level (nine index bits).
const FANOUT: usize = 512;
/// Number of radix levels.
const DEPTH: usize = 4;

/// Leaf word: no reservation present.
const EMPTY: u64 = 0;
/// Leaf word: the leaf node was pruned and is awaiting reclamation; any
/// operation that sees this helps unlink the node and re-descends.
const RETIRED: u64 = u64::MAX;

/// One field of the packed leaf word: `bits` wide, starting at bit `shift`.
#[derive(Clone, Copy)]
struct BitField {
    bits: u32,
    shift: u32,
}

impl BitField {
    /// The largest value the field holds.
    const fn max(self) -> u64 {
        (1 << self.bits) - 1
    }

    /// The field's value in `word`.
    #[inline]
    const fn get(self, word: u64) -> u64 {
        (word >> self.shift) & self.max()
    }

    /// `value` placed in the field, every other bit clear.
    #[inline]
    const fn put(self, value: u64) -> u64 {
        value << self.shift
    }
}

/// Set in every present word, so no present word equals `EMPTY`.
const PRESENT: BitField = BitField { bits: 1, shift: 0 };
/// The live mask: bit i set ⇒ page i of the group is mapped.
const LIVE: BitField = BitField { bits: 16, shift: 1 };
/// The chunk's base frame. `MachineConfig::MAX_FRAMES` is 2^26, far below
/// this field's range, so no present word equals `RETIRED` either.
const BASE: BitField = BitField {
    bits: 47,
    shift: 17,
};

/// The largest group order a table supports: 2^4 pages fill the leaf
/// word's 16-bit live mask.
pub const MAX_GROUP_ORDER: u32 = 4;
const _: () = assert!(1 << MAX_GROUP_ORDER == LIVE.bits);

/// Packs a reservation into a leaf word.
#[inline]
fn pack(base: u64, live: u16) -> u64 {
    debug_assert!(base <= BASE.max(), "frame number overflows the leaf word");
    debug_assert!(live != 0, "present words always have a live page");
    BASE.put(base) | LIVE.put(u64::from(live)) | PRESENT.put(1)
}

/// Inverse of [`pack`].
#[inline]
fn unpack(word: u64) -> (u64, u16) {
    (BASE.get(word), LIVE.get(word) as u16)
}

/// One reservation: an aligned chunk of `pages` frames and its usage mask.
///
/// Pages not currently mapped (`live` bit clear) are *owned by the
/// reservation* — whether never granted or granted and later freed — and
/// can be (re)granted without a buddy call. Frames only return to the buddy
/// allocator when the whole entry dies: retired after full grant, emptied
/// by the application freeing its last page, or reclaimed under pressure
/// (§4.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reservation {
    /// Base frame of the chunk (aligned to `pages` frames).
    pub base: GuestFrame,
    /// Bit i set ⇒ page i of the group is currently mapped.
    pub live: u16,
    /// Pages in the group: 2^order of the table holding the reservation.
    pub pages: u64,
}

impl Reservation {
    /// Frames of this chunk currently owned by the reservation (not mapped).
    pub fn unused_frames(&self) -> impl Iterator<Item = GuestFrame> + '_ {
        (0..self.pages)
            .filter(move |i| self.live & (1 << i) == 0)
            .map(move |i| GuestFrame::new(self.base.raw() + i))
    }

    /// Number of frames currently owned by the reservation.
    pub fn unused_count(&self) -> u32 {
        self.pages as u32 - self.live.count_ones()
    }
}

/// Result of a take-or-install operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TakeOutcome {
    /// The page was granted from an existing reservation (the fast path the
    /// paper's §6.4 microbenchmark exercises).
    FromReservation(GuestFrame),
    /// A new reservation was installed and the page granted from it.
    FromNewReservation(GuestFrame),
    /// No reservation existed and the chunk factory declined (buddy could
    /// not supply an aligned chunk); the caller must fall back.
    Unavailable,
}

/// Result of releasing a page.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReleaseOutcome {
    /// The group had no reservation entry: free the frame as the default
    /// kernel would.
    NotTracked,
    /// The page was tracked: it returns to the reservation (re-grantable
    /// without a buddy call). If this was the group's last live page, the
    /// entry was deleted and **every frame** of the chunk is returned for
    /// the caller to hand back to the buddy allocator.
    Released {
        /// Frames to return to the buddy allocator (empty unless the entry
        /// was deleted; the whole chunk when it was).
        unused_frames: Vec<GuestFrame>,
        /// Whether the reservation entry was removed.
        entry_deleted: bool,
    },
}

/// An interior radix node: 512 atomically-published child pointers.
/// Slots at levels `0..DEPTH-1` point to child `Node`s (never reclaimed);
/// slots of level `DEPTH-1` nodes point to `LeafNode`s (`Arc`-backed,
/// reclaimed through the epoch collector).
struct Node {
    slots: Vec<AtomicPtr<()>>,
}

impl Node {
    fn new() -> Self {
        Self {
            slots: (0..FANOUT)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
        }
    }
}

/// A leaf: the packed reservation word (see [`pack`]).
struct LeafNode {
    word: AtomicU64,
}

impl LeafNode {
    fn new() -> Self {
        Self {
            word: AtomicU64::new(EMPTY),
        }
    }
}

/// A leaf pointer queued for epoch-deferred reclamation.
struct RetiredLeaf(*const LeafNode);

// Safety: the pointee is an `Arc<LeafNode>` allocation (Sync) whose last
// reference is dropped by whichever thread drains the garbage bin.
unsafe impl Send for RetiredLeaf {}

/// Sentinel for a free epoch-participant or spare-pool slot.
const FREE_SLOT: u64 = u64::MAX;
/// Fixed number of epoch participant slots: the maximum number of PaRT
/// operations in flight at once on one table. Far above anything the
/// simulator or tests produce; `pin` retries when transiently full. Kept
/// small under model checking (`try_advance` scans every slot with
/// instrumented loads; model tests race two or three threads).
#[cfg(not(feature = "model-check"))]
const PARTICIPANTS: usize = 32;
#[cfg(feature = "model-check")]
const PARTICIPANTS: usize = 4;

/// Per-table epoch collector (three-bin scheme): operations pin the current
/// epoch in a participant slot; pruned leaves are pushed into the bin of the
/// epoch they were retired in and freed two epoch advances later, when no
/// pinned operation can still hold a pre-unlink pointer.
struct Collector {
    epoch: AtomicU64,
    slots: Vec<AtomicU64>,
    /// Bin `e % 3` holds leaves retired while the global epoch read `e`.
    /// The mutexes guard plain `Vec` pushes only — no instrumented atomic is
    /// ever touched while one is held, so under the model checker a critical
    /// section can never be preempted.
    bins: [Mutex<Vec<RetiredLeaf>>; 3],
}

impl Collector {
    fn new() -> Self {
        Self {
            epoch: AtomicU64::new(0),
            slots: (0..PARTICIPANTS)
                .map(|_| AtomicU64::new(FREE_SLOT))
                .collect(),
            bins: [
                Mutex::new(Vec::new()),
                Mutex::new(Vec::new()),
                Mutex::new(Vec::new()),
            ],
        }
    }

    /// Pins the current epoch. Every PaRT operation holds a guard for its
    /// duration; leaf nodes it may have observed cannot be freed until the
    /// guard drops.
    fn pin(&self) -> Guard<'_> {
        loop {
            let epoch = self.epoch.load(Ordering::SeqCst);
            for (i, slot) in self.slots.iter().enumerate() {
                if slot.load(Ordering::SeqCst) == FREE_SLOT
                    && slot
                        .compare_exchange(FREE_SLOT, epoch, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                {
                    return Guard {
                        collector: self,
                        slot: i,
                    };
                }
            }
            // All slots transiently busy: another operation will unpin.
        }
    }

    /// Queues an unlinked leaf for reclamation two epochs from now.
    fn defer_retire(&self, leaf: *const LeafNode) {
        let epoch = self.epoch.load(Ordering::SeqCst);
        self.bins[(epoch % 3) as usize]
            .lock()
            .push(RetiredLeaf(leaf));
        self.try_advance();
    }

    /// Advances the epoch when no operation is pinned behind it, freeing the
    /// bin that is now two epochs old: any operation that could have
    /// observed those leaves pre-unlink would have blocked the previous
    /// advance.
    fn try_advance(&self) {
        let epoch = self.epoch.load(Ordering::SeqCst);
        for slot in &self.slots {
            let pinned = slot.load(Ordering::SeqCst);
            if pinned != FREE_SLOT && pinned < epoch {
                return;
            }
        }
        if self
            .epoch
            .compare_exchange(epoch, epoch + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            let stale = std::mem::take(&mut *self.bins[((epoch + 2) % 3) as usize].lock());
            for leaf in stale {
                // Safety: unlinked two epochs ago; no pinned operation can
                // still hold this pointer (see advance rule above).
                unsafe { drop(Arc::from_raw(leaf.0)) };
            }
        }
    }
}

/// An epoch pin (see [`Collector::pin`]).
struct Guard<'a> {
    collector: &'a Collector,
    slot: usize,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        self.collector.slots[self.slot].store(FREE_SLOT, Ordering::SeqCst);
    }
}

/// Number of lock-free spare-chunk slots (overflow spills into a short
/// mutex-guarded list that, like the garbage bins, never holds its lock
/// across an instrumented atomic). Shrunk under model checking to keep the
/// scan short.
#[cfg(not(feature = "model-check"))]
const SPARE_SLOTS: usize = 16;
#[cfg(feature = "model-check")]
const SPARE_SLOTS: usize = 4;

/// Chunks allocated for an install that lost its race. The next install
/// claims a spare before calling its factory; [`PaRt::drain_unused`] drains
/// leftovers. Serial callers never race, so the pool stays empty and the
/// serial engine's behaviour is bit-identical to the old locked tree.
struct SparePool {
    /// Approximate occupancy, letting the (hot) empty case cost one load.
    hint: AtomicU64,
    slots: Vec<AtomicU64>,
    overflow: Mutex<Vec<u64>>,
}

impl SparePool {
    fn new() -> Self {
        Self {
            hint: AtomicU64::new(0),
            slots: (0..SPARE_SLOTS)
                .map(|_| AtomicU64::new(FREE_SLOT))
                .collect(),
            overflow: Mutex::new(Vec::new()),
        }
    }

    fn push(&self, base: u64) {
        debug_assert_ne!(base, FREE_SLOT);
        for slot in &self.slots {
            if slot.load(Ordering::SeqCst) == FREE_SLOT
                && slot
                    .compare_exchange(FREE_SLOT, base, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                self.hint.fetch_add(1, Ordering::SeqCst);
                return;
            }
        }
        self.overflow.lock().push(base);
        self.hint.fetch_add(1, Ordering::SeqCst);
    }

    fn pop(&self) -> Option<u64> {
        if self.hint.load(Ordering::SeqCst) == 0 {
            return None;
        }
        for slot in &self.slots {
            let base = slot.load(Ordering::SeqCst);
            if base != FREE_SLOT
                && slot
                    .compare_exchange(base, FREE_SLOT, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                self.hint.fetch_sub(1, Ordering::SeqCst);
                return Some(base);
            }
        }
        let got = self.overflow.lock().pop();
        if got.is_some() {
            self.hint.fetch_sub(1, Ordering::SeqCst);
        }
        got
    }
}

/// Counters exposed by a PaRT instance. All values are cumulative except
/// `live_entries` and `unused_frames`, which are gauges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PartStats {
    /// Grants served from existing reservations.
    pub hits: u64,
    /// Reservations installed.
    pub installs: u64,
    /// Entries deleted because every page of the group was granted
    /// (at order 0, every install).
    pub retired_full: u64,
    /// Entries deleted because the application freed all its pages.
    pub deleted_empty: u64,
    /// Current number of live entries.
    pub live_entries: u64,
    /// Current reserved-but-unused frames across live entries.
    pub unused_frames: u64,
}

impl PartStats {
    /// Merges another table's counters into this one (used to aggregate the
    /// per-process PaRTs into one allocator-level view).
    pub fn merge(&mut self, other: &PartStats) {
        self.hits += other.hits;
        self.installs += other.installs;
        self.retired_full += other.retired_full;
        self.deleted_empty += other.deleted_empty;
        self.live_entries += other.live_entries;
        self.unused_frames += other.unused_frames;
    }
}

impl vmsim_obs::MetricSource for PartStats {
    fn source_name(&self) -> &'static str {
        "part"
    }

    fn emit(&self, out: &mut Vec<vmsim_obs::Metric>) {
        out.push(vmsim_obs::Metric::u64("hits", self.hits));
        out.push(vmsim_obs::Metric::u64("installs", self.installs));
        out.push(vmsim_obs::Metric::u64("retired_full", self.retired_full));
        out.push(vmsim_obs::Metric::u64("deleted_empty", self.deleted_empty));
        out.push(vmsim_obs::Metric::u64("live_entries", self.live_entries));
        out.push(vmsim_obs::Metric::u64("unused_frames", self.unused_frames));
    }
}

/// The lock-free concurrent Page Reservation Table.
///
/// All methods take `&self`; atomic leaf words and CAS-published nodes make
/// concurrent use by many faulting threads safe without any blocking on the
/// grant path. Shared between parent and child after `fork` via `Arc`
/// (paper §4.4).
///
/// # Examples
///
/// ```
/// use ptemagnet::{PaRt, TakeOutcome};
/// use vmsim_types::GuestFrame;
///
/// let part = PaRt::new();
/// // First fault to group 5 installs a reservation from an 8-aligned chunk.
/// let got = part.take_or_install(5, 2, || Some(GuestFrame::new(64)));
/// assert_eq!(got, TakeOutcome::FromNewReservation(GuestFrame::new(66)));
/// // Later faults in the group are buddy-free fast-path hits.
/// let got = part.take_or_install(5, 3, || unreachable!());
/// assert_eq!(got, TakeOutcome::FromReservation(GuestFrame::new(67)));
/// assert_eq!(part.unused_frames(), 6);
/// ```
pub struct PaRt {
    /// log2 of the pages per group, fixed at construction.
    order: u32,
    root: Node,
    collector: Collector,
    spare: SparePool,
    /// One-entry leaf cache. Faulting streams hit the same group several
    /// times in a row (lookup + grant, every page of a group), making this a
    /// near-free shortcut past the radix descent. The cache holds a real
    /// `Arc`, so a cached leaf that was concurrently pruned is still safe to
    /// inspect — its `RETIRED` word sends the operation back down the tree.
    /// Compiled out under model checking to keep the schedule space small.
    #[cfg(not(feature = "model-check"))]
    last_leaf: Mutex<Option<(u64, Arc<LeafNode>)>>,
    /// Leaf nodes pruned and queued for epoch reclamation (not part of
    /// [`PartStats`]: surfaced for tests via [`PaRt::pruned_leaves`]).
    pruned: StdAtomicU64,
    hits: StdAtomicU64,
    installs: StdAtomicU64,
    retired_full: StdAtomicU64,
    deleted_empty: StdAtomicU64,
    live_entries: StdAtomicU64,
    unused_frames: StdAtomicU64,
}

impl Default for PaRt {
    fn default() -> Self {
        Self::new()
    }
}

impl core::fmt::Debug for PaRt {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = self.stats();
        write!(
            f,
            "PaRt(entries={}, unused={}, hits={}, installs={})",
            s.live_entries, s.unused_frames, s.hits, s.installs
        )
    }
}

impl PaRt {
    /// Creates an empty table of eight-page groups (order [`GROUP_SHIFT`]).
    pub fn new() -> Self {
        Self::with_order(GROUP_SHIFT)
    }

    /// Creates an empty table of 2^`order`-page groups.
    ///
    /// # Panics
    ///
    /// Panics if `order` exceeds [`MAX_GROUP_ORDER`].
    pub fn with_order(order: u32) -> Self {
        assert!(
            order <= MAX_GROUP_ORDER,
            "group order {order} exceeds {MAX_GROUP_ORDER}"
        );
        Self {
            order,
            root: Node::new(),
            collector: Collector::new(),
            spare: SparePool::new(),
            #[cfg(not(feature = "model-check"))]
            last_leaf: Mutex::new(None),
            pruned: StdAtomicU64::new(0),
            hits: StdAtomicU64::new(0),
            installs: StdAtomicU64::new(0),
            retired_full: StdAtomicU64::new(0),
            deleted_empty: StdAtomicU64::new(0),
            live_entries: StdAtomicU64::new(0),
            unused_frames: StdAtomicU64::new(0),
        }
    }

    /// Pages per group.
    #[inline]
    pub fn group_pages(&self) -> u64 {
        1 << self.order
    }

    /// The live mask of a group whose every page is mapped.
    #[inline]
    fn full_mask(&self) -> u16 {
        ((1u32 << self.group_pages()) - 1) as u16
    }

    /// The live-mask bit of page `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is not below [`PaRt::group_pages`].
    #[inline]
    fn bit(&self, offset: u64) -> u16 {
        assert!(
            offset < self.group_pages(),
            "offset {offset} out of group range"
        );
        1 << offset
    }

    /// The leaf word after a grant leaves `live` mapped: a full group
    /// retires in the same CAS (§4.2), so it is never published.
    #[inline]
    fn granted(&self, base: u64, live: u16) -> u64 {
        if live == self.full_mask() {
            EMPTY
        } else {
            pack(base, live)
        }
    }

    /// Counts a grant that left `live` mapped, from a reservation it
    /// `installed` or from an existing one.
    #[inline]
    fn count_grant(&self, installed: bool, live: u16) {
        if installed {
            self.installs.fetch_add(1, StdOrdering::Relaxed);
            self.live_entries.fetch_add(1, StdOrdering::Relaxed);
            self.unused_frames
                .fetch_add(self.group_pages() - 1, StdOrdering::Relaxed);
        } else {
            self.hits.fetch_add(1, StdOrdering::Relaxed);
            self.unused_frames.fetch_sub(1, StdOrdering::Relaxed);
        }
        if live == self.full_mask() {
            self.live_entries.fetch_sub(1, StdOrdering::Relaxed);
            self.retired_full.fetch_add(1, StdOrdering::Relaxed);
        }
    }

    /// The reservation a present leaf word encodes.
    #[inline]
    fn reservation(&self, word: u64) -> Reservation {
        let (base, live) = unpack(word);
        Reservation {
            base: GuestFrame::new(base),
            live,
            pages: self.group_pages(),
        }
    }

    /// Radix index of `group` at `level` (level 0 = root).
    #[inline]
    fn index(group: u64, level: usize) -> usize {
        ((group >> (9 * (DEPTH - 1 - level))) & (FANOUT as u64 - 1)) as usize
    }

    /// Finds the leaf for `group` through the one-entry cache, upgrading the
    /// epoch-protected pointer into an owned `Arc`.
    fn leaf(&self, group: u64, create: bool, guard: &Guard<'_>) -> Option<Arc<LeafNode>> {
        #[cfg(not(feature = "model-check"))]
        {
            let cache = self.last_leaf.lock();
            if let Some((cached_group, leaf)) = &*cache {
                if *cached_group == group {
                    return Some(Arc::clone(leaf));
                }
            }
        }
        let ptr = self.descend(group, create, guard)?;
        // Safety: `guard` pins the epoch, so even a concurrently pruned leaf
        // cannot have been freed yet; bumping the strong count turns the
        // borrowed pointer into an owned handle that outlives the guard.
        let leaf = unsafe {
            Arc::increment_strong_count(ptr);
            Arc::from_raw(ptr)
        };
        #[cfg(not(feature = "model-check"))]
        {
            *self.last_leaf.lock() = Some((group, Arc::clone(&leaf)));
        }
        Some(leaf)
    }

    /// Drops a cached leaf for `group` (it was observed `RETIRED`).
    fn forget_cached(&self, group: u64) {
        #[cfg(not(feature = "model-check"))]
        {
            let mut cache = self.last_leaf.lock();
            if cache.as_ref().is_some_and(|(g, _)| *g == group) {
                *cache = None;
            }
        }
        #[cfg(feature = "model-check")]
        let _ = group;
    }

    /// The full radix descent behind [`PaRt::leaf`]'s cache. Interior nodes
    /// and leaves are published with a `null → ptr` CAS; a `RETIRED` leaf
    /// found at the bottom is helped out of its slot and the level retried,
    /// so every retry reflects another thread's completed progress.
    fn descend(&self, group: u64, create: bool, _guard: &Guard<'_>) -> Option<*const LeafNode> {
        let mut node: &Node = &self.root;
        for level in 0..DEPTH - 1 {
            let slot = &node.slots[Self::index(group, level)];
            let mut ptr = slot.load(Ordering::SeqCst);
            if ptr.is_null() {
                if !create {
                    return None;
                }
                let candidate = Box::into_raw(Box::new(Node::new())).cast::<()>();
                match slot.compare_exchange(
                    std::ptr::null_mut(),
                    candidate,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                ) {
                    Ok(_) => ptr = candidate,
                    Err(current) => {
                        // Safety: the candidate was never published.
                        unsafe { drop(Box::from_raw(candidate.cast::<Node>())) };
                        ptr = current;
                    }
                }
            }
            // Safety: interior nodes are never reclaimed while the table
            // lives, so a published pointer stays valid.
            node = unsafe { &*ptr.cast_const().cast::<Node>() };
        }
        let slot = &node.slots[Self::index(group, DEPTH - 1)];
        loop {
            let ptr = slot.load(Ordering::SeqCst);
            if ptr.is_null() {
                if !create {
                    return None;
                }
                let candidate = Arc::into_raw(Arc::new(LeafNode::new()))
                    .cast_mut()
                    .cast::<()>();
                match slot.compare_exchange(
                    std::ptr::null_mut(),
                    candidate,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                ) {
                    Ok(_) => return Some(candidate.cast_const().cast::<LeafNode>()),
                    Err(_) => {
                        // Safety: the candidate was never published.
                        unsafe { drop(Arc::from_raw(candidate.cast_const().cast::<LeafNode>())) };
                        continue;
                    }
                }
            }
            let leaf = ptr.cast_const().cast::<LeafNode>();
            // Safety: `_guard` pins the epoch; a pruned leaf is unlinked but
            // not yet freed.
            if unsafe { &*leaf }.word.load(Ordering::SeqCst) == RETIRED {
                // Help the pruner unlink, then retry the level.
                let _ = slot.compare_exchange(
                    ptr,
                    std::ptr::null_mut(),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                continue;
            }
            return Some(leaf);
        }
    }

    /// Grants page `offset` of `group`, installing a new reservation from
    /// `chunk_factory` if none exists.
    ///
    /// `chunk_factory` must return the base of an **aligned chunk of one
    /// group's frames** (a buddy block of the table's order), or `None` if
    /// no such chunk is available (high fragmentation / memory pressure) —
    /// in which case [`TakeOutcome::Unavailable`] tells the caller to fall
    /// back to default allocation. At order 0 the installed reservation is
    /// full at once: it retires in the same step and is never published.
    ///
    /// The factory is called at most once. If the install CAS then loses a
    /// race, the chunk is parked in the internal spare pool (re-used by the
    /// next install on any group, drained by [`PaRt::drain_unused`]) and the
    /// grant is served from the reservation the race winner installed.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is not below [`PaRt::group_pages`] or if the page
    /// is already granted and live — the OS above guarantees a page faults
    /// only while unmapped.
    pub fn take_or_install(
        &self,
        group: u64,
        offset: u64,
        chunk_factory: impl FnOnce() -> Option<GuestFrame>,
    ) -> TakeOutcome {
        let bit = self.bit(offset);
        let guard = self.collector.pin();
        let mut factory = Some(chunk_factory);
        loop {
            let leaf = self.leaf(group, true, &guard).expect("created on demand");
            let word = leaf.word.load(Ordering::SeqCst);
            if word == RETIRED {
                self.forget_cached(group);
                continue;
            }
            if word == EMPTY {
                let base = match self.spare.pop() {
                    Some(base) => base,
                    None => match factory.take() {
                        Some(make) => match make() {
                            Some(frame) => frame.raw(),
                            None => return TakeOutcome::Unavailable,
                        },
                        // The factory's chunk was parked after a lost race
                        // and another thread claimed it from the pool: treat
                        // it like a declined buddy call.
                        None => return TakeOutcome::Unavailable,
                    },
                };
                assert_eq!(
                    base % self.group_pages(),
                    0,
                    "reservation chunks must be group-aligned"
                );
                match leaf.word.compare_exchange(
                    EMPTY,
                    self.granted(base, bit),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                ) {
                    Ok(_) => {
                        self.count_grant(true, bit);
                        return TakeOutcome::FromNewReservation(GuestFrame::new(base + offset));
                    }
                    Err(_) => {
                        self.spare.push(base);
                        continue;
                    }
                }
            }
            let (base, live) = unpack(word);
            assert!(
                live & bit == 0,
                "page {offset} of group {group:#x} is already live"
            );
            let new_live = live | bit;
            if leaf
                .word
                .compare_exchange(
                    word,
                    self.granted(base, new_live),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
            {
                self.count_grant(false, new_live);
                return TakeOutcome::FromReservation(GuestFrame::new(base + offset));
            }
        }
    }

    /// Attempts to grant page `offset` of `group` from an *existing*
    /// reservation, without installing one. Returns `None` when no entry
    /// covers the group **or the page is already live in it** — unlike
    /// [`PaRt::take_or_install`], which treats a live page as a caller
    /// contract violation. Used on the fork-inheritance path (§4.4), where
    /// the parent may legitimately still have the page mapped (the child is
    /// COW-breaking it).
    ///
    /// # Panics
    ///
    /// Panics if `offset` is not below [`PaRt::group_pages`].
    pub fn try_take(&self, group: u64, offset: u64) -> Option<GuestFrame> {
        let bit = self.bit(offset);
        let guard = self.collector.pin();
        loop {
            let leaf = self.leaf(group, false, &guard)?;
            let word = leaf.word.load(Ordering::SeqCst);
            if word == RETIRED {
                self.forget_cached(group);
                continue;
            }
            if word == EMPTY {
                return None;
            }
            let (base, live) = unpack(word);
            if live & bit != 0 {
                return None;
            }
            let new_live = live | bit;
            if leaf
                .word
                .compare_exchange(
                    word,
                    self.granted(base, new_live),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
            {
                self.count_grant(false, new_live);
                return Some(GuestFrame::new(base + offset));
            }
        }
    }

    /// Releases page `offset` of `group` (application `free()` path, §4.3).
    ///
    /// If the freed page empties the reservation, the entry is deleted and
    /// the never-granted frames are handed back for the caller to return to
    /// the buddy allocator.
    pub fn release(&self, group: u64, offset: u64) -> ReleaseOutcome {
        let bit = self.bit(offset);
        let guard = self.collector.pin();
        loop {
            let Some(leaf) = self.leaf(group, false, &guard) else {
                return ReleaseOutcome::NotTracked;
            };
            let word = leaf.word.load(Ordering::SeqCst);
            if word == RETIRED {
                self.forget_cached(group);
                continue;
            }
            if word == EMPTY {
                return ReleaseOutcome::NotTracked;
            }
            let (base, live) = unpack(word);
            if live & bit == 0 {
                // Tracked group, but this page is not live in it.
                return ReleaseOutcome::NotTracked;
            }
            // The page returns to the reservation, not to the buddy
            // allocator — it can be re-granted on a later fault without a
            // buddy call.
            let new_live = live & !bit;
            let next = if new_live == 0 {
                EMPTY
            } else {
                pack(base, new_live)
            };
            if leaf
                .word
                .compare_exchange(word, next, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                continue;
            }
            if new_live == 0 {
                // The application freed all its pages in this group: the
                // entry dies and every frame of the chunk goes back to the
                // caller.
                let pages = self.group_pages();
                let unused: Vec<GuestFrame> =
                    (0..pages).map(|i| GuestFrame::new(base + i)).collect();
                self.unused_frames
                    .fetch_sub(pages - 1, StdOrdering::Relaxed);
                self.live_entries.fetch_sub(1, StdOrdering::Relaxed);
                self.deleted_empty.fetch_add(1, StdOrdering::Relaxed);
                return ReleaseOutcome::Released {
                    unused_frames: unused,
                    entry_deleted: true,
                };
            }
            self.unused_frames.fetch_add(1, StdOrdering::Relaxed);
            return ReleaseOutcome::Released {
                unused_frames: Vec::new(),
                entry_deleted: false,
            };
        }
    }

    /// Looks up the reservation covering `group` without modifying it.
    pub fn peek(&self, group: u64) -> Option<Reservation> {
        let guard = self.collector.pin();
        loop {
            let leaf = self.leaf(group, false, &guard)?;
            let word = leaf.word.load(Ordering::SeqCst);
            if word == RETIRED {
                self.forget_cached(group);
                continue;
            }
            if word == EMPTY {
                return None;
            }
            return Some(self.reservation(word));
        }
    }

    /// Visits every live reservation (in unspecified order).
    pub fn for_each(&self, mut f: impl FnMut(u64, &Reservation)) {
        let guard = self.collector.pin();
        self.visit(&self.root, 0, 0, &guard, &mut f);
    }

    /// Tree walk behind [`PaRt::for_each`]: `_guard` pins the epoch for the
    /// leaves dereferenced along the way.
    fn visit(
        &self,
        node: &Node,
        level: usize,
        prefix: u64,
        _guard: &Guard<'_>,
        f: &mut impl FnMut(u64, &Reservation),
    ) {
        for (i, slot) in node.slots.iter().enumerate() {
            let ptr = scan_load(slot);
            if ptr.is_null() {
                continue;
            }
            if level < DEPTH - 1 {
                // Safety: interior nodes are never reclaimed.
                let child = unsafe { &*ptr.cast_const().cast::<Node>() };
                self.visit(child, level + 1, (prefix << 9) | i as u64, _guard, f);
            } else {
                // Safety: `_guard` pins the epoch.
                let leaf = unsafe { &*ptr.cast_const().cast::<LeafNode>() };
                let word = leaf.word.load(Ordering::SeqCst);
                if word != EMPTY && word != RETIRED {
                    f((prefix << 9) | i as u64, &self.reservation(word));
                }
            }
        }
    }

    /// Drains reserved-but-unused frames, calling `release_frame` for each,
    /// until it returns `false` (target met) or the table has no more unused
    /// frames. Drained entries are deleted; their live pages stay mapped and
    /// keep benefiting from the contiguity already created (§4.3). Spare
    /// chunks parked by lost install races are drained the same way, and
    /// emptied leaf nodes are pruned afterwards (epoch-deferred).
    ///
    /// Returns the number of frames drained.
    pub fn drain_unused(&self, mut release_frame: impl FnMut(GuestFrame) -> bool) -> u64 {
        let guard = self.collector.pin();
        let mut groups: Vec<u64> = Vec::new();
        self.visit(&self.root, 0, 0, &guard, &mut |group, res| {
            if res.unused_count() > 0 {
                groups.push(group);
            }
        });
        let mut drained = 0u64;
        let mut stop = false;
        for group in groups {
            let Some(leaf) = self.leaf(group, false, &guard) else {
                continue;
            };
            loop {
                let word = leaf.word.load(Ordering::SeqCst);
                if word == EMPTY || word == RETIRED {
                    break;
                }
                let unused: Vec<GuestFrame> = self.reservation(word).unused_frames().collect();
                if unused.is_empty() {
                    break;
                }
                if leaf
                    .word
                    .compare_exchange(word, EMPTY, Ordering::SeqCst, Ordering::SeqCst)
                    .is_err()
                {
                    continue;
                }
                // The reservation is destroyed: live pages stay mapped; no
                // future grants can come from it.
                self.live_entries.fetch_sub(1, StdOrdering::Relaxed);
                self.unused_frames
                    .fetch_sub(unused.len() as u64, StdOrdering::Relaxed);
                for frame in unused {
                    drained += 1;
                    if !release_frame(frame) {
                        stop = true;
                    }
                }
                break;
            }
            if stop {
                break;
            }
        }
        if !stop {
            while let Some(base) = self.spare.pop() {
                for i in 0..self.group_pages() {
                    drained += 1;
                    if !release_frame(GuestFrame::new(base + i)) {
                        stop = true;
                    }
                }
                if stop {
                    break;
                }
            }
        }
        self.prune_with(&guard);
        drained
    }

    /// Prunes empty leaf nodes out of the tree: each is CASed to the
    /// `RETIRED` sentinel, unlinked from its parent slot, and queued on the
    /// epoch collector for deferred reclamation. Concurrent operations that
    /// observe the sentinel help unlink and re-descend; live entries are
    /// untouched. Called by [`PaRt::drain_unused`]; public so reclamation
    /// can be driven (and model-checked) directly.
    pub fn prune_empty(&self) {
        let guard = self.collector.pin();
        self.prune_with(&guard);
    }

    fn prune_with(&self, _guard: &Guard<'_>) {
        self.prune_node(&self.root, 0);
        #[cfg(not(feature = "model-check"))]
        {
            *self.last_leaf.lock() = None;
        }
    }

    fn prune_node(&self, node: &Node, level: usize) {
        for slot in &node.slots {
            let ptr = scan_load(slot);
            if ptr.is_null() {
                continue;
            }
            if level < DEPTH - 1 {
                // Safety: interior nodes are never reclaimed.
                self.prune_node(unsafe { &*ptr.cast_const().cast::<Node>() }, level + 1);
                continue;
            }
            // Safety: the caller's guard pins the epoch.
            let leaf = unsafe { &*ptr.cast_const().cast::<LeafNode>() };
            if leaf.word.load(Ordering::SeqCst) == EMPTY
                && leaf
                    .word
                    .compare_exchange(EMPTY, RETIRED, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                // Winning the RETIRED transition makes this thread the sole
                // unlinker; helpers may beat it to the slot CAS, never to a
                // different value.
                let _ = slot.compare_exchange(
                    ptr,
                    std::ptr::null_mut(),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                self.collector
                    .defer_retire(ptr.cast_const().cast::<LeafNode>());
                self.pruned.fetch_add(1, StdOrdering::Relaxed);
            }
        }
    }

    /// Forcibly drains one group's reservation (if it exists), returning
    /// the frames it owned. Live pages stay mapped and are unaffected.
    /// Used when the OS targets a reserved frame for swap or compaction
    /// (§4.4 "Swap and THP").
    pub fn drain_group(&self, group: u64) -> Vec<GuestFrame> {
        let guard = self.collector.pin();
        loop {
            let Some(leaf) = self.leaf(group, false, &guard) else {
                return Vec::new();
            };
            let word = leaf.word.load(Ordering::SeqCst);
            if word == RETIRED {
                self.forget_cached(group);
                continue;
            }
            if word == EMPTY {
                return Vec::new();
            }
            let unused: Vec<GuestFrame> = self.reservation(word).unused_frames().collect();
            if leaf
                .word
                .compare_exchange(word, EMPTY, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                self.unused_frames
                    .fetch_sub(unused.len() as u64, StdOrdering::Relaxed);
                self.live_entries.fetch_sub(1, StdOrdering::Relaxed);
                return unused;
            }
        }
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> PartStats {
        PartStats {
            hits: self.hits.load(StdOrdering::Relaxed),
            installs: self.installs.load(StdOrdering::Relaxed),
            retired_full: self.retired_full.load(StdOrdering::Relaxed),
            deleted_empty: self.deleted_empty.load(StdOrdering::Relaxed),
            live_entries: self.live_entries.load(StdOrdering::Relaxed),
            unused_frames: self.unused_frames.load(StdOrdering::Relaxed),
        }
    }

    /// Current reserved-but-unused frame count (the §6.2 metric).
    pub fn unused_frames(&self) -> u64 {
        self.unused_frames.load(StdOrdering::Relaxed)
    }

    /// Current number of live entries.
    pub fn live_entries(&self) -> u64 {
        self.live_entries.load(StdOrdering::Relaxed)
    }

    /// Leaf nodes pruned so far (cumulative; test/diagnostic surface).
    pub fn pruned_leaves(&self) -> u64 {
        self.pruned.load(StdOrdering::Relaxed)
    }

    /// Chunk bases currently parked in the spare pool (quiescent snapshot;
    /// always empty for serial callers — test/diagnostic surface).
    pub fn spare_chunks(&self) -> Vec<u64> {
        let mut chunks: Vec<u64> = self
            .spare
            .slots
            .iter()
            .map(|s| s.load(Ordering::SeqCst))
            .filter(|&b| b != FREE_SLOT)
            .collect();
        chunks.extend(self.spare.overflow.lock().iter().copied());
        chunks
    }
}

impl Drop for PaRt {
    fn drop(&mut self) {
        // Free leaves still queued on the collector (they were unlinked from
        // the tree, so the walk below cannot double-free them).
        for bin in &self.collector.bins {
            for leaf in std::mem::take(&mut *bin.lock()) {
                // Safety: unlinked, and no operation can be in flight during
                // drop (exclusive access).
                unsafe { drop(Arc::from_raw(leaf.0)) };
            }
        }
        fn free(node: &Node, level: usize) {
            for slot in &node.slots {
                let ptr = slot.load(Ordering::SeqCst);
                if ptr.is_null() {
                    continue;
                }
                if level < DEPTH - 1 {
                    // Safety: exclusively owned during drop.
                    let child = unsafe { Box::from_raw(ptr.cast::<Node>()) };
                    free(&child, level + 1);
                } else {
                    // Safety: the tree holds the strong count taken at
                    // publication.
                    unsafe { drop(Arc::from_raw(ptr.cast_const().cast::<LeafNode>())) };
                }
            }
        }
        free(&self.root, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmsim_types::GROUP_PAGES;

    fn chunk(base: u64) -> impl FnOnce() -> Option<GuestFrame> {
        move || Some(GuestFrame::new(base))
    }

    #[test]
    fn install_then_hit() {
        let part = PaRt::new();
        let a = part.take_or_install(5, 0, chunk(80));
        assert_eq!(a, TakeOutcome::FromNewReservation(GuestFrame::new(80)));
        let b = part.take_or_install(5, 3, || panic!("no second chunk needed"));
        assert_eq!(b, TakeOutcome::FromReservation(GuestFrame::new(83)));
        let s = part.stats();
        assert_eq!(s.installs, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.live_entries, 1);
        assert_eq!(s.unused_frames, 6);
    }

    #[test]
    fn factory_decline_reports_unavailable() {
        let part = PaRt::new();
        assert_eq!(
            part.take_or_install(1, 0, || None),
            TakeOutcome::Unavailable
        );
        assert_eq!(part.live_entries(), 0);
    }

    #[test]
    fn fully_granted_entry_retires() {
        let part = PaRt::new();
        part.take_or_install(7, 0, chunk(8));
        for off in 1..8 {
            part.take_or_install(7, off, || panic!("reservation exists"));
        }
        assert_eq!(part.live_entries(), 0);
        assert_eq!(part.stats().retired_full, 1);
        assert_eq!(part.unused_frames(), 0);
        // Post-retirement, frees are not tracked.
        assert_eq!(part.release(7, 0), ReleaseOutcome::NotTracked);
    }

    #[test]
    fn release_last_live_page_deletes_entry_and_returns_unused() {
        let part = PaRt::new();
        part.take_or_install(2, 1, chunk(16));
        part.take_or_install(2, 4, || None);
        match part.release(2, 1) {
            ReleaseOutcome::Released {
                entry_deleted,
                unused_frames,
            } => {
                assert!(!entry_deleted);
                assert!(unused_frames.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
        match part.release(2, 4) {
            ReleaseOutcome::Released {
                entry_deleted,
                unused_frames,
            } => {
                assert!(entry_deleted);
                // The whole chunk returns: freed pages re-joined the
                // reservation, so all of 16..24 is owned by it at death.
                let raws: Vec<u64> = unused_frames.iter().map(|f| f.raw()).collect();
                assert_eq!(raws, (16..24).collect::<Vec<u64>>());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(part.live_entries(), 0);
        assert_eq!(part.stats().deleted_empty, 1);
    }

    #[test]
    fn distinct_groups_are_independent() {
        let part = PaRt::new();
        part.take_or_install(0, 0, chunk(0));
        part.take_or_install(1, 0, chunk(8));
        // Far-apart groups exercise distinct subtrees.
        part.take_or_install(1 << 30, 0, chunk(16));
        assert_eq!(part.live_entries(), 3);
        assert_eq!(part.peek(0).unwrap().base, GuestFrame::new(0));
        assert_eq!(part.peek(1 << 30).unwrap().base, GuestFrame::new(16));
        assert!(part.peek(2).is_none());
    }

    #[test]
    fn refault_after_free_within_live_entry_regrants_same_frame() {
        let part = PaRt::new();
        part.take_or_install(3, 0, chunk(24));
        part.take_or_install(3, 2, || None);
        part.release(3, 2);
        // Page 2 faults again while the entry is alive: same frame comes
        // back, and unused accounting is unchanged (it was granted before).
        let r = part.take_or_install(3, 2, || panic!("entry exists"));
        assert_eq!(r, TakeOutcome::FromReservation(GuestFrame::new(26)));
        assert_eq!(part.unused_frames(), 6);
    }

    #[test]
    #[should_panic(expected = "already live")]
    fn double_grant_panics() {
        let part = PaRt::new();
        part.take_or_install(3, 0, chunk(24));
        part.take_or_install(3, 0, || None);
    }

    #[test]
    #[should_panic(expected = "group-aligned")]
    fn misaligned_chunk_panics() {
        let part = PaRt::new();
        part.take_or_install(3, 0, chunk(5));
    }

    #[test]
    fn order_zero_install_retires_at_once() {
        let part = PaRt::with_order(0);
        let got = part.take_or_install(5, 0, chunk(5));
        assert_eq!(got, TakeOutcome::FromNewReservation(GuestFrame::new(5)));
        let s = part.stats();
        assert_eq!((s.installs, s.retired_full), (1, 1));
        assert_eq!((s.live_entries, s.unused_frames), (0, 0));
        assert!(part.peek(5).is_none(), "a full group is never published");
        assert_eq!(part.release(5, 0), ReleaseOutcome::NotTracked);
    }

    #[test]
    #[should_panic(expected = "out of group range")]
    fn offset_beyond_the_order_panics() {
        PaRt::with_order(1).take_or_install(0, 2, chunk(0));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn orders_above_the_live_mask_are_refused() {
        PaRt::with_order(MAX_GROUP_ORDER + 1);
    }

    #[test]
    fn for_each_visits_live_entries() {
        let part = PaRt::new();
        part.take_or_install(10, 0, chunk(0));
        part.take_or_install(20, 0, chunk(8));
        let mut seen = Vec::new();
        part.for_each(|g, r| seen.push((g, r.base.raw())));
        seen.sort_unstable();
        assert_eq!(seen, vec![(10, 0), (20, 8)]);
    }

    #[test]
    fn drain_unused_returns_frames_and_deletes_entries() {
        let part = PaRt::new();
        part.take_or_install(1, 0, chunk(0));
        part.take_or_install(2, 0, chunk(8));
        let mut freed = Vec::new();
        let drained = part.drain_unused(|f| {
            freed.push(f.raw());
            true
        });
        assert_eq!(drained, 14);
        assert_eq!(part.live_entries(), 0);
        assert_eq!(part.unused_frames(), 0);
        assert_eq!(freed.len(), 14);
        // Pages 0 of both groups stay granted (not in the freed list).
        assert!(!freed.contains(&0));
        assert!(!freed.contains(&8));
    }

    #[test]
    fn drain_unused_respects_stop_signal() {
        let part = PaRt::new();
        part.take_or_install(1, 0, chunk(0));
        part.take_or_install(2, 0, chunk(8));
        let mut count = 0;
        // Stop after the first entry's frames.
        part.drain_unused(|_| {
            count += 1;
            count < 7
        });
        // One entry drained (7 frames), the other survives.
        assert_eq!(part.live_entries(), 1);
    }

    #[test]
    fn drain_unused_prunes_emptied_leaves_and_groups_stay_usable() {
        let part = PaRt::new();
        part.take_or_install(9, 0, chunk(0));
        part.drain_unused(|_| true);
        assert!(part.pruned_leaves() >= 1, "the emptied leaf was pruned");
        // The group is immediately reusable through a fresh leaf.
        let again = part.take_or_install(9, 1, chunk(8));
        assert_eq!(again, TakeOutcome::FromNewReservation(GuestFrame::new(9)));
        assert_eq!(part.peek(9).unwrap().base, GuestFrame::new(8));
    }

    #[test]
    fn serial_callers_never_park_spares() {
        let part = PaRt::new();
        for g in 0..32 {
            part.take_or_install(g, 0, chunk(g * 8));
        }
        assert!(part.spare_chunks().is_empty());
    }

    #[test]
    fn concurrent_faulting_threads_are_safe() {
        // Many threads fault into disjoint and overlapping groups; chunk
        // bases come from an atomic bump allocator. Every granted frame must
        // be unique, and all bookkeeping must balance.
        use std::sync::atomic::AtomicU64;
        let part = Arc::new(PaRt::new());
        let next_chunk = Arc::new(AtomicU64::new(0));
        let threads = 8;
        let groups_per_thread = 64u64;
        let mut handles = Vec::new();
        for t in 0..threads {
            let part = Arc::clone(&part);
            let next_chunk = Arc::clone(&next_chunk);
            handles.push(std::thread::spawn(move || {
                let mut frames = Vec::new();
                for g in 0..groups_per_thread {
                    // Threads share groups (g) but own distinct offsets (t).
                    let out = part.take_or_install(g, t, || {
                        Some(GuestFrame::new(
                            next_chunk.fetch_add(GROUP_PAGES, StdOrdering::Relaxed),
                        ))
                    });
                    match out {
                        TakeOutcome::FromReservation(f) | TakeOutcome::FromNewReservation(f) => {
                            frames.push(f.raw())
                        }
                        TakeOutcome::Unavailable => unreachable!(),
                    }
                }
                frames
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), before, "no frame granted twice");
        // 64 groups × 8 offsets each = all entries fully granted & retired.
        assert_eq!(part.live_entries(), 0);
        assert_eq!(part.unused_frames(), 0);
        assert_eq!(part.stats().installs, 64);
        // Conservation: every allocated chunk is either fully granted or
        // parked in the spare pool — nothing leaked.
        let allocated_chunks = next_chunk.load(StdOrdering::Relaxed) / GROUP_PAGES;
        assert_eq!(
            allocated_chunks,
            64 + part.spare_chunks().len() as u64,
            "chunks = installs + spares"
        );
    }
}
