//! Packed per-node predicate bit-planes and the deterministic id set.
//!
//! The per-cycle kernel is data-oriented: instead of probing each
//! [`crate::outqueue::OutQueue`] for "can this sender transmit?", "does this
//! sender hold a grant?", and so on, the channel mirrors every per-node
//! predicate into a packed `u64` [`BitPlane`] indexed by downstream
//! distance. Phase loops then become word-at-a-time scans —
//! `trailing_zeros` iteration over set bits — so a 64-node channel examines
//! one machine word where the scalar loop examined 63 queues.
//!
//! [`Planes`] bundles the planes the channel maintains:
//!
//! * `sendable` — `senders[n].sendable() > 0`: the sender has backlog its
//!   send mode allows it to offer. Token sweeps ([`super::arbiter`]) use it
//!   to skip hopeless windows and to bulk-advance an idle token stream.
//! * `granted` — `senders[n].granted() > 0`: the sender holds at least one
//!   transmission grant. The transmit phase serves set bits in ascending
//!   distance order (nearest-first, the paper's service order), replacing a
//!   grant list that had to be re-sorted every cycle.
//! * `backlogged` — `senders[n].backlog() > 0`: the sender has waiting
//!   packets, whether or not its send mode lets it offer them. Drain checks
//!   reduce to `!backlogged.any()`.
//! * `unresolved` — the sender has transmitted copies awaiting an
//!   ACK/NACK/timeout verdict (a pending held head or occupied setaside
//!   slots). This is the retransmit-pending predicate: ACK processing and
//!   timeout sweeps only ever touch set bits.
//!
//! Exactness matters: the arbiter still calls
//! [`crate::outqueue::OutQueue::eligible`] on every candidate the
//! `sendable` mask yields (fairness sit-outs are time-dependent and not
//! mirrored here), but a *missing* bit would silently skip an eligible
//! sender and change arbitration.
//! [`crate::channel::Channel::try_check_invariants`] cross-checks every
//! plane against its scalar predicate on every sampled cycle of a run with
//! the invariant auditor attached ([`crate::Network::attach_auditor`]).
//!
//! [`SortedIdSet`] lives here too: it is the other deterministic set in the
//! kernel (duplicate suppression over packet ids), kept as a sorted vec
//! because ids are allocated by a monotone counter, so inserts land at or
//! near the tail and membership is a cache-friendly binary search. The
//! determinism lint `no-unordered-collections` bans hash collections in
//! simulation state; both structures here iterate in canonical order.

/// Bitmask over downstream distances `0..len` (see module docs).
#[derive(Debug, Clone)]
pub struct BitPlane {
    words: Vec<u64>,
    /// Number of set bits (cheap `any()` without scanning words).
    live: usize,
}

impl BitPlane {
    /// An empty plane over `len` distances.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64).max(1)],
            live: 0,
        }
    }

    /// Set or clear the bit for distance `d`, keeping the live count exact.
    #[inline]
    pub fn set(&mut self, d: usize, on: bool) {
        let w = &mut self.words[d / 64];
        let bit = 1u64 << (d % 64);
        let was = *w & bit != 0;
        if on && !was {
            *w |= bit;
            self.live += 1;
        } else if !on && was {
            *w &= !bit;
            self.live -= 1;
        }
    }

    /// Whether distance `d` is marked.
    #[inline]
    pub fn get(&self, d: usize) -> bool {
        self.words[d / 64] & (1u64 << (d % 64)) != 0
    }

    /// Whether any bit is set.
    #[inline]
    pub fn any(&self) -> bool {
        self.live > 0
    }

    /// Number of set bits.
    #[inline]
    pub fn count(&self) -> usize {
        self.live
    }

    /// Clear every bit, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.live = 0;
    }

    /// The smallest marked distance in `[lo, hi)`, if any.
    #[inline]
    pub fn first_in(&self, lo: usize, hi: usize) -> Option<usize> {
        if lo >= hi || self.live == 0 {
            return None;
        }
        let (lo_w, hi_w) = (lo / 64, (hi - 1) / 64);
        for w in lo_w..=hi_w {
            let mut bits = self.words[w];
            if w == lo_w {
                bits &= !0u64 << (lo % 64);
            }
            if bits == 0 {
                continue;
            }
            let d = w * 64 + bits.trailing_zeros() as usize;
            return (d < hi).then_some(d);
        }
        None
    }

    /// Clear word `w` (distances `64·w .. 64·w + 63`) and return its bits.
    #[inline]
    pub fn take_word(&mut self, w: usize) -> u64 {
        let bits = std::mem::take(&mut self.words[w]);
        self.live -= bits.count_ones() as usize;
        bits
    }

    /// Visit the set distances in ascending order, clearing each one for
    /// which `keep` returns `false`.
    #[inline]
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let mut live = self.live;
        for (w, word) in self.words.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let d = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if !keep(d) {
                    *word &= !(1u64 << (d % 64));
                    live -= 1;
                }
            }
        }
        self.live = live;
    }

    /// Iterate the set distances in ascending order, one `trailing_zeros`
    /// word scan at a time.
    #[inline]
    pub fn iter(&self) -> BitPlaneIter<'_> {
        BitPlaneIter {
            words: &self.words,
            word: 0,
            bits: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Iterate the distances set in *both* planes, in ascending order.
    /// The planes must cover the same length.
    pub fn iter_and<'a>(&'a self, other: &'a BitPlane) -> AndIter<'a> {
        debug_assert_eq!(self.words.len(), other.words.len());
        AndIter {
            a: &self.words,
            b: &other.words,
            word: 0,
            bits: match (self.words.first(), other.words.first()) {
                (Some(&x), Some(&y)) => x & y,
                _ => 0,
            },
        }
    }
}

impl Default for BitPlane {
    /// An empty plane over no distances.
    fn default() -> Self {
        Self::new(0)
    }
}

/// Word-scan iterator over the set bits of a [`BitPlane`], yielding
/// distances in ascending order.
#[derive(Debug)]
pub struct BitPlaneIter<'a> {
    words: &'a [u64],
    word: usize,
    bits: u64,
}

impl<'a> IntoIterator for &'a BitPlane {
    type Item = usize;
    type IntoIter = BitPlaneIter<'a>;

    fn into_iter(self) -> BitPlaneIter<'a> {
        self.iter()
    }
}

impl Iterator for BitPlaneIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.word += 1;
            if self.word >= self.words.len() {
                return None;
            }
            self.bits = self.words[self.word];
        }
        let tz = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.word * 64 + tz)
    }
}

/// Ascending iterator over the bitwise AND of two planes' words.
#[derive(Debug)]
pub struct AndIter<'a> {
    a: &'a [u64],
    b: &'a [u64],
    word: usize,
    bits: u64,
}

impl Iterator for AndIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.word += 1;
            if self.word >= self.a.len() {
                return None;
            }
            self.bits = self.a[self.word] & self.b[self.word];
        }
        let tz = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.word * 64 + tz)
    }
}

/// Per-class views of the channel's predicate planes, maintained only when
/// admission control (`QoS`) is configured. Each class `c` gets:
///
/// * `sendable[c]` — the sender is sendable *and* its head packet belongs
///   to class `c` (the grant an admission bucket would pay for),
/// * `granted[c]` — the sender holds a grant and its head is class `c`,
/// * `backlogged[c]` — the sender's queue contains *any* class-`c` packet
///   (from [`crate::outqueue::OutQueue::class_backlog_mask`]) — the
///   starvation audit's "class is waiting" predicate.
///
/// Head-class predicates partition their parent plane: each distance is set
/// in at most one class's `sendable`/`granted` view, and the union over
/// classes equals the parent bit exactly
/// ([`crate::channel::Channel::try_check_invariants`] cross-checks this).
#[derive(Debug, Clone)]
pub struct ClassPlanes {
    /// Sendable with a class-`c` head, per class.
    pub sendable: [BitPlane; crate::MAX_CLASSES],
    /// Granted with a class-`c` head, per class.
    pub granted: [BitPlane; crate::MAX_CLASSES],
    /// Any class-`c` packet queued, per class.
    pub backlogged: [BitPlane; crate::MAX_CLASSES],
}

impl ClassPlanes {
    /// Empty per-class planes over `len` distances.
    pub fn new(len: usize) -> Self {
        Self {
            sendable: std::array::from_fn(|_| BitPlane::new(len)),
            granted: std::array::from_fn(|_| BitPlane::new(len)),
            backlogged: std::array::from_fn(|_| BitPlane::new(len)),
        }
    }

    /// Re-derive every class's bits for distance `d` from the queue's
    /// scalar state (same exactness contract as [`Planes::refresh`]).
    #[inline]
    pub fn refresh<T: crate::outqueue::QueueItem>(
        &mut self,
        d: usize,
        q: &crate::outqueue::OutQueue<T>,
    ) {
        let head = q.head_class();
        let sendable = q.sendable() > 0;
        let granted = q.granted() > 0;
        let mask = q.class_backlog_mask();
        for c in 0..crate::MAX_CLASSES {
            let is_head = head.map(usize::from) == Some(c);
            self.sendable[c].set(d, sendable && is_head);
            self.granted[c].set(d, granted && is_head);
            self.backlogged[c].set(d, mask & (1 << c) != 0);
        }
    }
}

/// The channel's bundle of per-node predicate planes, all indexed by
/// downstream distance (see module docs for the predicate each mirrors).
#[derive(Debug, Clone)]
pub struct Planes {
    /// `senders[n].sendable() > 0` — backlog the send mode can offer.
    pub sendable: BitPlane,
    /// `senders[n].granted() > 0` — holds at least one grant.
    pub granted: BitPlane,
    /// `senders[n].backlog() > 0` — any waiting packets at all.
    pub backlogged: BitPlane,
    /// Pending held head or occupied setaside — copies awaiting a verdict.
    pub unresolved: BitPlane,
    /// Per-class views, allocated only when admission control is on. `None`
    /// keeps the `QoS`-off refresh path identical to the pre-`QoS` kernel.
    pub classes: Option<Box<ClassPlanes>>,
}

impl Planes {
    /// Empty planes over `len` distances, without per-class views.
    pub fn new(len: usize) -> Self {
        Self {
            sendable: BitPlane::new(len),
            granted: BitPlane::new(len),
            backlogged: BitPlane::new(len),
            unresolved: BitPlane::new(len),
            classes: None,
        }
    }

    /// Empty planes with per-class views enabled (admission control on).
    pub fn with_classes(len: usize) -> Self {
        let mut p = Self::new(len);
        p.classes = Some(Box::new(ClassPlanes::new(len)));
        p
    }

    /// Re-derive every plane's bit for distance `d` from the queue's scalar
    /// state. Called after any queue mutation (push, grant, transmit, ACK,
    /// NACK, timeout) — the planes are exact mirrors, never approximations.
    #[inline]
    pub fn refresh<T: crate::outqueue::QueueItem>(
        &mut self,
        d: usize,
        q: &crate::outqueue::OutQueue<T>,
    ) {
        self.sendable.set(d, q.sendable() > 0);
        self.granted.set(d, q.granted() > 0);
        self.backlogged.set(d, q.backlog() > 0);
        self.unresolved.set(d, q.unresolved_len() > 0);
        if let Some(cp) = self.classes.as_deref_mut() {
            cp.refresh(d, q);
        }
    }
}

/// Live distributed-arbitration tokens as a bit-set over *ages*.
///
/// A token emitted `a` cycles ago sweeps the window
/// `[a·step, (a+1)·step)` — its position is a pure function of its age —
/// so the stream's whole state is "which ages are alive". Bit `a` set
/// means a token emitted `a` cycles ago is still circulating. Advancing
/// every token one window is then a single word shift per cycle
/// ([`AgeSet::tick`]), a membership probe is a bit test, and a grant or
/// fault removal is a bit clear. At most one token is emitted per cycle,
/// so ages are distinct and the mapping is exact.
///
/// The word vector is kept canonical (no trailing zero words) so that
/// structural equality compares token streams, not allocation history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgeSet {
    words: Vec<u64>,
}

impl AgeSet {
    /// An empty stream.
    pub fn new() -> Self {
        Self { words: vec![0] }
    }

    /// Age every live token by one cycle (bit `a` → bit `a + 1`).
    #[inline]
    pub fn tick(&mut self) {
        let mut carry = 0u64;
        for w in &mut self.words {
            let out = *w >> 63;
            *w = (*w << 1) | carry;
            carry = out;
        }
        if carry != 0 {
            self.words.push(carry);
        }
    }

    /// Emit a fresh token (age 0). At most one emission per cycle.
    #[inline]
    pub fn emit(&mut self) {
        debug_assert!(self.words[0] & 1 == 0, "two tokens emitted in one cycle");
        self.words[0] |= 1;
    }

    /// Whether a token of age `age` is alive.
    #[inline]
    pub fn contains(&self, age: usize) -> bool {
        self.words
            .get(age / 64)
            .is_some_and(|w| w & (1u64 << (age % 64)) != 0)
    }

    /// Remove the token of age `age` (taken by a sender, or destroyed).
    #[inline]
    pub fn clear(&mut self, age: usize) {
        if let Some(w) = self.words.get_mut(age / 64) {
            *w &= !(1u64 << (age % 64));
        }
        self.canonicalize();
    }

    /// Visit every live token oldest-first, dropping those for which
    /// `keep` returns `false`; returns the number removed. The visit order
    /// is the emission order, so per-token fault draws replay identically
    /// across representations.
    pub fn retain_oldest_first(&mut self, mut keep: impl FnMut() -> bool) -> usize {
        let mut removed = 0;
        for i in (0..self.words.len()).rev() {
            let mut bits = self.words[i];
            while bits != 0 {
                let bit = 1u64 << bits.ilog2();
                bits &= !bit;
                if !keep() {
                    self.words[i] &= !bit;
                    removed += 1;
                }
            }
        }
        self.canonicalize();
        removed
    }

    /// Remove every token of age ≥ `max_age` (completed the loop and died
    /// at the home).
    pub fn retire(&mut self, max_age: usize) {
        let cut = max_age / 64;
        for (i, w) in self.words.iter_mut().enumerate() {
            if i > cut {
                *w = 0;
            } else if i == cut {
                *w &= (1u64 << (max_age % 64)) - 1;
            }
        }
        self.canonicalize();
    }

    /// Live token count.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether any token is alive.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Iterate live ages oldest-first (descending age) — the emission
    /// order, which fault draws and state keys both follow.
    pub fn iter_oldest_first(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().rev().flat_map(|(i, &w)| {
            std::iter::successors(
                (w != 0).then(|| 63 - w.leading_zeros() as usize),
                move |&a| {
                    let rest = w & ((1u64 << (a % 64)) - 1);
                    (rest != 0).then(|| 63 - rest.leading_zeros() as usize)
                },
            )
            .map(move |a| i * 64 + a)
        })
    }

    /// Drop trailing zero words so equality is structural.
    fn canonicalize(&mut self) {
        while self.words.len() > 1 && self.words.last() == Some(&0) {
            self.words.pop();
        }
    }
}

impl Default for AgeSet {
    fn default() -> Self {
        Self::new()
    }
}

/// A set of `u64` ids stored as a sorted vector (see module docs).
#[derive(Debug, Clone, Default)]
pub struct SortedIdSet {
    ids: Vec<u64>,
}

impl SortedIdSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `id` is in the set.
    #[inline]
    pub fn contains(&self, id: u64) -> bool {
        // Fast path: ids arrive in roughly increasing order, so most probes
        // are beyond the current maximum.
        match self.ids.last() {
            None => false,
            Some(&max) if id > max => false,
            Some(&max) if id == max => true,
            _ => self.ids.binary_search(&id).is_ok(),
        }
    }

    /// Insert `id`; returns `false` if it was already present.
    pub fn insert(&mut self, id: u64) -> bool {
        if self.ids.last().is_none_or(|&max| id > max) {
            self.ids.push(id);
            return true;
        }
        match self.ids.binary_search(&id) {
            Ok(_) => false,
            Err(pos) => {
                self.ids.insert(pos, id);
                true
            }
        }
    }

    /// Remove every id, keeping the allocation.
    pub fn clear(&mut self) {
        self.ids.clear();
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterate the ids in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.ids.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_and_live_count() {
        let mut s = BitPlane::new(130);
        assert!(!s.any());
        s.set(0, true);
        s.set(129, true);
        s.set(129, true); // idempotent
        assert!(s.any());
        assert_eq!(s.count(), 2);
        assert!(s.get(0) && s.get(129) && !s.get(64));
        s.set(0, false);
        s.set(0, false); // idempotent
        s.set(129, false);
        assert!(!s.any());
    }

    #[test]
    fn first_in_respects_the_window() {
        let mut s = BitPlane::new(200);
        s.set(70, true);
        s.set(150, true);
        assert_eq!(s.first_in(0, 200), Some(70));
        assert_eq!(s.first_in(71, 200), Some(150));
        assert_eq!(s.first_in(0, 70), None);
        assert_eq!(s.first_in(70, 71), Some(70));
        assert_eq!(s.first_in(151, 200), None);
        assert_eq!(s.first_in(5, 5), None);
    }

    #[test]
    fn first_in_scans_within_one_word() {
        let mut s = BitPlane::new(64);
        s.set(3, true);
        s.set(9, true);
        assert_eq!(s.first_in(0, 64), Some(3));
        assert_eq!(s.first_in(4, 64), Some(9));
        assert_eq!(s.first_in(4, 9), None);
        assert_eq!(s.first_in(10, 64), None);
    }

    #[test]
    fn iter_scans_words_in_ascending_order() {
        let mut s = BitPlane::new(200);
        for d in [0usize, 63, 64, 127, 128, 199] {
            s.set(d, true);
        }
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![0, 63, 64, 127, 128, 199]);
        s.clear();
        assert!(!s.any());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn retain_visits_in_order_and_clears_rejected_bits() {
        let mut s = BitPlane::new(150);
        for d in [2usize, 63, 64, 100, 149] {
            s.set(d, true);
        }
        let mut seen = Vec::new();
        s.retain(|d| {
            seen.push(d);
            d % 2 == 0
        });
        assert_eq!(seen, vec![2, 63, 64, 100, 149]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2, 64, 100]);
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn take_word_clears_one_word_and_the_live_count() {
        let mut s = BitPlane::new(150);
        for d in [2usize, 63, 64, 100, 149] {
            s.set(d, true);
        }
        assert_eq!(s.take_word(0), (1 << 2) | (1 << 63));
        assert_eq!(s.take_word(0), 0);
        assert_eq!(s.count(), 3);
        assert_eq!(s.take_word(2), 1 << (149 - 128));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![64, 100]);
    }

    #[test]
    fn iter_and_yields_the_intersection() {
        let mut a = BitPlane::new(150);
        let mut b = BitPlane::new(150);
        for d in [1usize, 60, 70, 149] {
            a.set(d, true);
        }
        for d in [1usize, 70, 100, 149] {
            b.set(d, true);
        }
        let got: Vec<usize> = a.iter_and(&b).collect();
        assert_eq!(got, vec![1, 70, 149]);
    }

    #[test]
    fn insert_contains_and_order() {
        let mut s = SortedIdSet::new();
        assert!(s.is_empty());
        for id in [5u64, 1, 9, 3, 9, 5] {
            s.insert(id);
        }
        assert_eq!(s.len(), 4, "duplicates are not stored twice");
        for id in [1u64, 3, 5, 9] {
            assert!(s.contains(id));
        }
        for id in [0u64, 2, 4, 8, 10] {
            assert!(!s.contains(id));
        }
        let ordered: Vec<u64> = s.iter().collect();
        assert_eq!(ordered, vec![1, 3, 5, 9], "iteration is in id order");
    }

    #[test]
    fn insert_reports_novelty_and_clear_resets() {
        let mut s = SortedIdSet::new();
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert!(s.insert(2), "out-of-order insert still works");
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(7));
    }

    #[test]
    fn ageset_tick_emit_and_probe() {
        let mut s = AgeSet::new();
        assert!(!s.any());
        s.emit();
        assert!(s.contains(0));
        s.tick();
        s.emit();
        assert!(s.contains(0) && s.contains(1));
        assert_eq!(s.count(), 2);
        s.clear(1);
        assert!(!s.contains(1) && s.contains(0));
        let ages: Vec<usize> = s.iter_oldest_first().collect();
        assert_eq!(ages, vec![0]);
    }

    #[test]
    fn ageset_shifts_across_word_boundaries() {
        let mut s = AgeSet::new();
        s.emit();
        for _ in 0..100 {
            s.tick();
        }
        assert!(s.contains(100), "token aged across the word boundary");
        assert_eq!(s.count(), 1);
        assert_eq!(s.iter_oldest_first().collect::<Vec<_>>(), vec![100]);
        s.retire(100);
        assert!(!s.any());
        assert_eq!(s, AgeSet::new(), "retire canonicalizes trailing words");
    }

    #[test]
    fn ageset_retire_drops_only_old_tokens() {
        let mut s = AgeSet::new();
        for _ in 0..10 {
            s.emit();
            s.tick();
        }
        // Ages now 1..=10.
        assert_eq!(s.count(), 10);
        s.retire(8);
        assert_eq!(
            s.iter_oldest_first().collect::<Vec<_>>(),
            vec![7, 6, 5, 4, 3, 2, 1]
        );
    }

    #[test]
    fn ageset_iterates_oldest_first_across_words() {
        let mut s = AgeSet::new();
        s.emit();
        for _ in 0..70 {
            s.tick();
        }
        s.emit();
        s.tick();
        s.emit();
        // Ages: 71, 1, 0.
        assert_eq!(s.iter_oldest_first().collect::<Vec<_>>(), vec![71, 1, 0]);
    }

    #[test]
    fn monotone_appends_use_the_tail_fast_path() {
        let mut s = SortedIdSet::new();
        for id in 0..1000u64 {
            assert!(s.insert(id));
        }
        assert_eq!(s.len(), 1000);
        assert!(s.contains(999));
        assert!(!s.contains(1000));
    }
}
