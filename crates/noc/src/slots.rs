//! The wave-pipelined data ring: one slot per segment.
//!
//! A [`SlotRing`] holds `R` slots that advance one segment per cycle without
//! moving memory (a rotating offset). At most one flit occupies a segment in
//! a given cycle — the channel's physical bandwidth of one flit per cycle.

/// A rotating ring of `R` optional payloads.
///
/// Indexing keeps `base` — the physical index of logical segment 0 — in
/// `[0, R)` so the per-cycle hot path (`advance` plus every `index_of`)
/// is branch-predictable adds and compares with no integer division.
#[derive(Debug, Clone)]
pub struct SlotRing<T> {
    slots: Vec<Option<T>>,
    /// Physical index of logical segment 0; always `< slots.len()`.
    base: usize,
    /// Occupied-slot count — O(1) emptiness for per-cycle drain checks.
    count: usize,
}

impl<T> SlotRing<T> {
    /// An empty ring with `segments` slots.
    pub fn new(segments: usize) -> Self {
        assert!(segments > 0, "ring needs at least one segment");
        Self {
            slots: (0..segments).map(|_| None).collect(),
            base: 0,
            count: 0,
        }
    }

    /// Number of segments.
    pub fn segments(&self) -> usize {
        self.slots.len()
    }

    /// Advance the ring one segment (contents at segment `g` move to
    /// segment `g + 1 mod R`).
    pub fn advance(&mut self) {
        self.base = match self.base.checked_sub(1) {
            Some(b) => b,
            None => self.slots.len() - 1,
        };
    }

    /// Advance the ring `k` segments at once: the same state as `k` calls
    /// to [`SlotRing::advance`] (a quiescent channel catching up).
    pub fn rotate(&mut self, k: u64) {
        let len = self.slots.len();
        let k = (k % len as u64) as usize;
        self.base = if self.base >= k {
            self.base - k
        } else {
            self.base + len - k
        };
    }

    #[inline]
    fn index_of(&self, segment: usize) -> usize {
        debug_assert!(segment < self.slots.len());
        let idx = self.base + segment;
        if idx >= self.slots.len() {
            idx - self.slots.len()
        } else {
            idx
        }
    }

    /// Shared access to the slot currently at `segment`.
    pub fn at(&self, segment: usize) -> Option<&T> {
        self.slots[self.index_of(segment)].as_ref()
    }

    /// Whether the slot at `segment` is free.
    pub fn is_free(&self, segment: usize) -> bool {
        self.slots[self.index_of(segment)].is_none()
    }

    /// Take the payload at `segment`, leaving the slot empty.
    pub fn take(&mut self, segment: usize) -> Option<T> {
        let idx = self.index_of(segment);
        let taken = self.slots[idx].take();
        self.count -= usize::from(taken.is_some());
        taken
    }

    /// Place a payload into the slot at `segment`. Panics if occupied — the
    /// arbitration layer must only grant free slots.
    pub fn put(&mut self, segment: usize, value: T) {
        let idx = self.index_of(segment);
        assert!(
            self.slots[idx].is_none(),
            "slot collision at segment {segment}"
        );
        self.slots[idx] = Some(value);
        self.count += 1;
    }

    /// Iterate occupied slots as `(segment, payload)` in segment order
    /// (introspection for the invariant auditor and the model checker).
    pub fn iter_occupied(&self) -> impl Iterator<Item = (usize, &T)> {
        (0..self.slots.len()).filter_map(|seg| self.at(seg).map(|v| (seg, v)))
    }

    /// Number of occupied slots (O(1)).
    pub fn occupied(&self) -> usize {
        self.count
    }

    /// True when no slot is occupied (O(1)).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_travels_one_segment_per_cycle() {
        let mut r: SlotRing<u32> = SlotRing::new(4);
        r.put(1, 42);
        assert_eq!(r.at(1), Some(&42));
        r.advance();
        assert!(r.at(1).is_none());
        assert_eq!(r.at(2), Some(&42));
        r.advance();
        r.advance();
        assert_eq!(r.at(0), Some(&42)); // wrapped
        r.advance();
        assert_eq!(r.at(1), Some(&42)); // full loop
    }

    #[test]
    fn rotate_matches_repeated_advance() {
        for k in 0..20u64 {
            let mut stepped: SlotRing<u32> = SlotRing::new(5);
            let mut rotated: SlotRing<u32> = SlotRing::new(5);
            stepped.put(2, 9);
            rotated.put(2, 9);
            for _ in 0..k {
                stepped.advance();
            }
            rotated.rotate(k);
            assert_eq!(stepped.base, rotated.base, "k = {k}");
            assert_eq!(stepped.at((2 + k as usize) % 5), Some(&9));
        }
    }

    #[test]
    fn take_empties_slot() {
        let mut r: SlotRing<u32> = SlotRing::new(3);
        r.put(0, 7);
        assert_eq!(r.take(0), Some(7));
        assert!(r.is_free(0));
        assert_eq!(r.take(0), None);
        assert!(r.is_empty());
    }

    #[test]
    #[should_panic(expected = "slot collision")]
    fn double_put_panics() {
        let mut r: SlotRing<u32> = SlotRing::new(3);
        r.put(2, 1);
        r.put(2, 2);
    }

    #[test]
    fn occupancy_counts() {
        let mut r: SlotRing<u8> = SlotRing::new(5);
        assert_eq!(r.occupied(), 0);
        r.put(0, 1);
        r.put(3, 2);
        assert_eq!(r.occupied(), 2);
        r.advance();
        assert_eq!(r.occupied(), 2, "advance preserves contents");
    }

    #[test]
    fn independent_slots_after_many_advances() {
        let mut r: SlotRing<usize> = SlotRing::new(8);
        for turn in 0..3 {
            for g in 0..8 {
                r.put(g, turn * 8 + g);
                assert_eq!(r.take(g), Some(turn * 8 + g));
            }
            for _ in 0..8 {
                r.advance();
            }
        }
        assert!(r.is_empty());
    }
}
