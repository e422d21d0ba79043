//! A generic set-associative array with true-LRU replacement.
//!
//! Used as the storage engine for data caches, TLBs, page-walk caches, and
//! the nested TLB. Keys are `u64` identifiers (cache-line index, page number,
//! or an ASID-tagged page number); the set is selected by the key's low bits.
//!
//! Storage is a flat struct-of-arrays (keys / LRU stamps / values) with a
//! fixed `ways` stride per set, so the per-lookup work is one multiply and a
//! short contiguous scan — no per-set `Vec` indirection on the simulator's
//! hottest path. A stamp of 0 marks an empty slot; the clock starts at 0 and
//! is incremented before every stamp, so live stamps are always ≥ 1 and
//! unique. Unique stamps also make the LRU victim unique, so eviction
//! behaviour is identical to the previous per-set-`Vec` implementation.

/// A set-associative array mapping `u64` keys to values `V`, with true-LRU
/// replacement within each set.
///
/// # Examples
///
/// ```
/// use vmsim_cache::SetAssoc;
///
/// let mut sa: SetAssoc<u32> = SetAssoc::new(4, 2);
/// sa.insert(1, 10);
/// sa.insert(5, 50); // maps to the same set as key 1 (4 sets)
/// assert_eq!(sa.get(1), Some(&10));
/// sa.insert(9, 90); // evicts key 5 (LRU after the get of key 1)
/// assert_eq!(sa.get(5), None);
/// assert_eq!(sa.get(1), Some(&10));
/// ```
#[derive(Clone, Debug)]
pub struct SetAssoc<V> {
    /// Slot keys; meaningful only where `stamps` is non-zero.
    keys: Vec<u64>,
    /// Monotonic last-touch timestamps; 0 = empty slot, smallest = LRU.
    stamps: Vec<u64>,
    /// Slot values; `Some` exactly where `stamps` is non-zero.
    values: Vec<Option<V>>,
    ways: usize,
    set_mask: u64,
    clock: u64,
    len: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Per-set mutation epochs: bumped whenever a set's contents or LRU
    /// order change (hit promotion, insert, invalidate, flush). A lookup
    /// that misses changes neither, so it does not bump. Memoization layers
    /// use "epoch unchanged since fill" as proof that a resident entry is
    /// still the set's MRU and that replaying its hit without touching LRU
    /// state is behaviour-preserving.
    set_epochs: Vec<u64>,
}

/// Whether [`SetAssoc::new`] accepts `sets` sets of `ways` ways: a
/// nonzero power-of-two set count and at least one way.
#[must_use]
pub const fn valid_shape(sets: usize, ways: usize) -> bool {
    sets.is_power_of_two() && ways > 0
}

impl<V> SetAssoc<V> {
    /// Creates an array with `sets` sets of `ways` ways each.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero or not a power of two, or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "sets must be a power of two"
        );
        assert!(ways > 0, "need at least one way");
        let slots = sets * ways;
        Self {
            keys: vec![0; slots],
            stamps: vec![0; slots],
            values: (0..slots).map(|_| None).collect(),
            ways,
            set_mask: sets as u64 - 1,
            clock: 0,
            len: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            set_epochs: vec![0; sets],
        }
    }

    /// First slot of `key`'s set in the flat arrays.
    #[inline]
    fn base_of(&self, key: u64) -> usize {
        (key & self.set_mask) as usize * self.ways
    }

    /// Index of the set `key` maps to.
    #[inline]
    pub fn set_index(&self, key: u64) -> u32 {
        (key & self.set_mask) as u32
    }

    /// Current mutation epoch of the set `key` maps to (see `set_epochs`).
    #[inline]
    pub fn set_epoch(&self, key: u64) -> u64 {
        self.set_epochs[(key & self.set_mask) as usize]
    }

    /// Current mutation epoch of set `index` (for callers that captured the
    /// index at fill time).
    #[inline]
    pub fn set_epoch_at(&self, index: u32) -> u64 {
        self.set_epochs[index as usize]
    }

    /// Looks up `key`, updating LRU state and hit/miss counters.
    pub fn get(&mut self, key: u64) -> Option<&V> {
        let mut unused = usize::MAX;
        self.get_with_hint(key, &mut unused)
    }

    /// [`get`](Self::get) that checks `hint` (a slot index from a previous
    /// hit) before scanning the set — the L0 "last translation" fast path.
    /// Counter and LRU updates are identical to `get`; on a hit, `hint` is
    /// updated to the hit slot. A stale or out-of-range hint is safe: a live
    /// slot matching `key` can only exist inside `key`'s own set.
    pub fn get_with_hint(&mut self, key: u64, hint: &mut usize) -> Option<&V> {
        self.clock += 1;
        let clock = self.clock;
        let set = (key & self.set_mask) as usize;
        let slot = *hint;
        if slot < self.stamps.len() && self.stamps[slot] != 0 && self.keys[slot] == key {
            self.stamps[slot] = clock;
            self.hits += 1;
            self.set_epochs[set] += 1;
            return self.values[slot].as_ref();
        }
        let base = set * self.ways;
        for slot in base..base + self.ways {
            if self.stamps[slot] != 0 && self.keys[slot] == key {
                self.stamps[slot] = clock;
                self.hits += 1;
                self.set_epochs[set] += 1;
                *hint = slot;
                return self.values[slot].as_ref();
            }
        }
        self.misses += 1;
        None
    }

    /// Fused lookup-and-fill: one set scan that either promotes a hit
    /// (exactly like [`SetAssoc::get`]) or fills the miss with `value`
    /// (exactly like a missing [`SetAssoc::get`] followed by
    /// [`SetAssoc::insert`]). Returns whether the key was already present.
    ///
    /// Observable behaviour — hit/miss/eviction counters, victim choice,
    /// LRU order, and set epochs — is identical to the two-call sequence;
    /// only the internal clock advances once instead of twice, which
    /// preserves the relative order of all stamps and therefore every
    /// future replacement decision.
    pub fn access_fill(&mut self, key: u64, value: V) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let set = (key & self.set_mask) as usize;
        let base = set * self.ways;
        let mut empty = None;
        let mut victim = base;
        let mut victim_stamp = u64::MAX;
        for slot in base..base + self.ways {
            let stamp = self.stamps[slot];
            if stamp == 0 {
                empty.get_or_insert(slot);
            } else if self.keys[slot] == key {
                self.stamps[slot] = clock;
                self.hits += 1;
                self.set_epochs[set] += 1;
                return true;
            } else if stamp < victim_stamp {
                victim_stamp = stamp;
                victim = slot;
            }
        }
        self.misses += 1;
        self.set_epochs[set] += 1;
        let slot = match empty {
            Some(slot) => {
                self.len += 1;
                slot
            }
            None => {
                self.evictions += 1;
                victim
            }
        };
        self.keys[slot] = key;
        self.stamps[slot] = clock;
        self.values[slot] = Some(value);
        false
    }

    /// Checks for `key` without touching LRU state or counters.
    pub fn peek(&self, key: u64) -> Option<&V> {
        let base = self.base_of(key);
        (base..base + self.ways)
            .find(|&slot| self.stamps[slot] != 0 && self.keys[slot] == key)
            .and_then(|slot| self.values[slot].as_ref())
    }

    /// Inserts `key -> value`, evicting the LRU way of a full set.
    ///
    /// Returns the evicted `(key, value)` pair, if any. Inserting an existing
    /// key replaces its value (and returns the old one paired with the key).
    pub fn insert(&mut self, key: u64, value: V) -> Option<(u64, V)> {
        self.clock += 1;
        let clock = self.clock;
        self.set_epochs[(key & self.set_mask) as usize] += 1;
        let base = self.base_of(key);
        // One pass over the set: find the key, an empty slot, and the LRU
        // victim simultaneously.
        let mut empty = None;
        let mut victim = base;
        let mut victim_stamp = u64::MAX;
        for slot in base..base + self.ways {
            let stamp = self.stamps[slot];
            if stamp == 0 {
                empty.get_or_insert(slot);
            } else if self.keys[slot] == key {
                self.stamps[slot] = clock;
                let old = self.values[slot].replace(value).expect("live slot");
                return Some((key, old));
            } else if stamp < victim_stamp {
                victim_stamp = stamp;
                victim = slot;
            }
        }
        if let Some(slot) = empty {
            self.keys[slot] = key;
            self.stamps[slot] = clock;
            self.values[slot] = Some(value);
            self.len += 1;
            return None;
        }
        let old_key = self.keys[victim];
        let old = self.values[victim].replace(value).expect("live victim");
        self.keys[victim] = key;
        self.stamps[victim] = clock;
        self.evictions += 1;
        Some((old_key, old))
    }

    /// Removes `key` if present, returning its value.
    pub fn invalidate(&mut self, key: u64) -> Option<V> {
        let base = self.base_of(key);
        for slot in base..base + self.ways {
            if self.stamps[slot] != 0 && self.keys[slot] == key {
                self.stamps[slot] = 0;
                self.len -= 1;
                self.set_epochs[(key & self.set_mask) as usize] += 1;
                return self.values[slot].take();
            }
        }
        None
    }

    /// Removes every entry for which `pred` returns true.
    pub fn invalidate_if(&mut self, mut pred: impl FnMut(u64, &V) -> bool) {
        for slot in 0..self.stamps.len() {
            if self.stamps[slot] == 0 {
                continue;
            }
            let keep = {
                let value = self.values[slot].as_ref().expect("live slot");
                !pred(self.keys[slot], value)
            };
            if !keep {
                self.stamps[slot] = 0;
                self.values[slot] = None;
                self.len -= 1;
                self.set_epochs[slot / self.ways] += 1;
            }
        }
    }

    /// Drops all entries (counters are preserved).
    pub fn flush(&mut self) {
        self.stamps.fill(0);
        for value in &mut self.values {
            *value = None;
        }
        self.len = 0;
        for epoch in &mut self.set_epochs {
            *epoch += 1;
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lookup hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Evictions (capacity/conflict replacements) since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Total capacity in entries.
    pub fn capacity(&self) -> usize {
        self.stamps.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut sa: SetAssoc<u64> = SetAssoc::new(8, 2);
        assert!(sa.get(42).is_none());
        sa.insert(42, 1);
        assert_eq!(sa.get(42), Some(&1));
        assert_eq!(sa.hits(), 1);
        assert_eq!(sa.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // One set, two ways: keys 0, 8, 16 all collide.
        let mut sa: SetAssoc<&str> = SetAssoc::new(8, 2);
        sa.insert(0, "a");
        sa.insert(8, "b");
        sa.get(0); // make 8 the LRU
        let evicted = sa.insert(16, "c");
        assert_eq!(evicted, Some((8, "b")));
        assert!(sa.peek(0).is_some());
        assert!(sa.peek(16).is_some());
    }

    #[test]
    fn reinsert_updates_value_in_place() {
        let mut sa: SetAssoc<u64> = SetAssoc::new(4, 2);
        sa.insert(3, 1);
        let old = sa.insert(3, 2);
        assert_eq!(old, Some((3, 1)));
        assert_eq!(sa.get(3), Some(&2));
        assert_eq!(sa.len(), 1);
    }

    #[test]
    fn peek_does_not_disturb_lru_or_counters() {
        let mut sa: SetAssoc<u64> = SetAssoc::new(1, 2);
        sa.insert(0, 0);
        sa.insert(1, 1);
        sa.peek(0); // would protect 0 if it updated LRU — it must not
        let h = sa.hits();
        sa.get(1); // now 0 is LRU
        assert_eq!(sa.hits(), h + 1);
        let evicted = sa.insert(2, 2);
        assert_eq!(evicted.map(|(k, _)| k), Some(0));
    }

    #[test]
    fn invalidate_removes_entry() {
        let mut sa: SetAssoc<u64> = SetAssoc::new(4, 2);
        sa.insert(7, 70);
        assert_eq!(sa.invalidate(7), Some(70));
        assert_eq!(sa.invalidate(7), None);
        assert!(sa.is_empty());
    }

    #[test]
    fn invalidate_if_filters_entries() {
        let mut sa: SetAssoc<u64> = SetAssoc::new(4, 4);
        for k in 0..8 {
            sa.insert(k, k * 10);
        }
        sa.invalidate_if(|k, _| k % 2 == 0);
        assert_eq!(sa.len(), 4);
        assert!(sa.peek(2).is_none());
        assert!(sa.peek(3).is_some());
    }

    #[test]
    fn flush_clears_everything() {
        let mut sa: SetAssoc<u64> = SetAssoc::new(4, 2);
        for k in 0..8 {
            sa.insert(k, k);
        }
        sa.flush();
        assert!(sa.is_empty());
    }

    #[test]
    fn len_never_exceeds_capacity() {
        let mut sa: SetAssoc<u64> = SetAssoc::new(4, 2);
        for k in 0..100 {
            sa.insert(k, k);
        }
        assert!(sa.len() <= sa.capacity());
        assert_eq!(sa.capacity(), 8);
        assert!(sa.evictions() > 0);
    }

    #[test]
    fn hinted_get_matches_plain_get() {
        let mut plain: SetAssoc<u64> = SetAssoc::new(4, 2);
        let mut hinted: SetAssoc<u64> = SetAssoc::new(4, 2);
        let mut hint = usize::MAX;
        for k in [1u64, 5, 1, 9, 1, 5, 13, 1] {
            plain.insert(k, k * 2);
            hinted.insert(k, k * 2);
            assert_eq!(plain.get(1), hinted.get_with_hint(1, &mut hint));
        }
        assert_eq!(plain.hits(), hinted.hits());
        assert_eq!(plain.misses(), hinted.misses());
        assert_eq!(plain.evictions(), hinted.evictions());
    }

    #[test]
    fn stale_hint_is_verified_not_trusted() {
        let mut sa: SetAssoc<u64> = SetAssoc::new(4, 2);
        sa.insert(3, 30);
        let mut hint = usize::MAX;
        assert_eq!(sa.get_with_hint(3, &mut hint), Some(&30));
        sa.invalidate(3);
        // The hint now points at a dead slot; the lookup must miss.
        assert_eq!(sa.get_with_hint(3, &mut hint), None);
        sa.insert(7, 70);
        // And a hint for a different key's slot must not produce key 3.
        assert_eq!(sa.get_with_hint(3, &mut hint), None);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_set_count() {
        SetAssoc::<u64>::new(3, 2);
    }

    #[test]
    fn set_epochs_track_mutations_not_misses() {
        let mut sa: SetAssoc<u64> = SetAssoc::new(4, 2);
        let e0 = sa.set_epoch(0);
        assert!(sa.get(0).is_none()); // miss: neither contents nor LRU change
        assert_eq!(sa.set_epoch(0), e0);
        sa.insert(0, 1);
        let e1 = sa.set_epoch(0);
        assert!(e1 > e0);
        sa.get(0); // hit: LRU promotion counts as a mutation
        let e2 = sa.set_epoch(0);
        assert!(e2 > e1);
        // Activity in set 0 leaves other sets' epochs alone.
        let other = sa.set_epoch(1);
        sa.insert(4, 2); // key 4 -> set 0 again
        assert_eq!(sa.set_epoch(1), other);
        assert!(sa.set_epoch(0) > e2);
        // Invalidate and flush both bump.
        let e3 = sa.set_epoch(0);
        sa.invalidate(0);
        assert!(sa.set_epoch(0) > e3);
        let all_before: Vec<u64> = (0..4).map(|s| sa.set_epoch_at(s)).collect();
        sa.flush();
        for (s, before) in all_before.iter().enumerate() {
            assert!(sa.set_epoch_at(s as u32) > *before);
        }
        assert_eq!(sa.set_index(5), 1);
    }
}
