//! Sender-side output queues: HOL blocking, setaside buffers, fairness.
//!
//! Each (sender node, destination channel) pair owns one [`OutQueue`]. The
//! three send disciplines map directly onto the paper's schemes:
//!
//! * [`SendMode::HoldHead`] — basic GHS/DHS: a transmitted packet stays at
//!   the queue head, *pending*, until its ACK arrives; the queue is blocked
//!   meanwhile (the HOL problem of §III),
//! * [`SendMode::Setaside`] — transmitted packets move into a small setaside
//!   buffer, yielding the head to followers (§III, "setaside buffer"),
//! * [`SendMode::Forget`] — credit-reserved schemes (token channel / token
//!   slot) and DHS-circulation: a transmitted packet leaves the sender
//!   immediately.

use crate::config::FairnessPolicy;
use crate::packet::{Packet, PacketRef};
use pnoc_sim::Cycle;
use std::collections::VecDeque;

/// The contract a queue entry must satisfy: an id for handshake matching
/// and a send counter bumped at transmission. The channel hot path queues
/// [`PacketRef`] handles (16 bytes) against a [`crate::packet::PacketArena`];
/// the SWMR baseline and unit rigs queue whole [`Packet`]s (the default type
/// parameter), where `on_transmit` also stamps `sent_at`.
pub trait QueueItem: Copy {
    /// The packet's unique id.
    fn id(&self) -> u64;
    /// Transmissions so far.
    fn sends(&self) -> u32;
    /// Record one transmission at `now`.
    fn on_transmit(&mut self, now: Cycle);
    /// Traffic class the packet belongs to (admission control, per-class
    /// observability). Items without a class notion report class 0.
    #[inline]
    fn class(&self) -> u8 {
        0
    }
}

impl QueueItem for Packet {
    #[inline]
    fn id(&self) -> u64 {
        self.id
    }

    #[inline]
    fn sends(&self) -> u32 {
        self.sends
    }

    #[inline]
    fn on_transmit(&mut self, now: Cycle) {
        self.sent_at = now;
        self.sends += 1;
    }

    #[inline]
    fn class(&self) -> u8 {
        self.class
    }
}

impl QueueItem for PacketRef {
    #[inline]
    fn id(&self) -> u64 {
        self.id
    }

    #[inline]
    fn sends(&self) -> u32 {
        self.sends
    }

    /// Only the mirror counter lives here; the channel stamps `sent_at` on
    /// the arena payload when it places the flit on the ring.
    #[inline]
    fn on_transmit(&mut self, _now: Cycle) {
        self.sends += 1;
    }

    #[inline]
    fn class(&self) -> u8 {
        self.class
    }
}

/// What happens to a packet when it is transmitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendMode {
    /// Stay at the head, pending, until the handshake arrives.
    HoldHead,
    /// Move into a setaside buffer of the given capacity (≥ 1).
    Setaside(usize),
    /// Leave the sender immediately.
    Forget,
}

/// Outcome of an ACK-timeout firing against this queue (reliability
/// extension: recovery from *lost* flits and handshakes, where no NACK will
/// ever arrive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutAction<T> {
    /// The packet was still awaiting its handshake; it is sendable again and
    /// will be retransmitted under the next grant.
    Retry,
    /// The packet exhausted its retry budget and was discarded; the caller
    /// receives the evicted entry (to release its arena payload).
    Abandon(T),
    /// The timer was stale — the packet's handshake already arrived (or a
    /// NACK already requeued it). Nothing changed.
    Stale,
}

/// Per-(sender, channel) output queue.
#[derive(Debug, Clone)]
pub struct OutQueue<T: QueueItem = Packet> {
    mode: SendMode,
    queue: VecDeque<T>,
    head_pending: bool,
    setaside: Vec<T>,
    /// Tokens taken but not yet used to transmit.
    granted: u32,
    /// Fairness: consecutive grants since the last sit-out.
    consecutive_serves: u32,
    /// Fairness: ineligible until this cycle.
    sit_until: Cycle,
}

impl<T: QueueItem> OutQueue<T> {
    /// An empty queue with the given send discipline.
    pub fn new(mode: SendMode) -> Self {
        if let SendMode::Setaside(cap) = mode {
            assert!(
                cap > 0,
                "setaside capacity must be ≥ 1 (use HoldHead for 0)"
            );
        }
        Self {
            mode,
            queue: VecDeque::new(),
            head_pending: false,
            setaside: Vec::new(),
            granted: 0,
            consecutive_serves: 0,
            sit_until: 0,
        }
    }

    /// Enqueue a packet (source queues are unbounded — open-loop
    /// methodology; saturation shows up as unbounded latency).
    pub fn push(&mut self, pkt: T) {
        self.queue.push_back(pkt);
    }

    /// Packets that could be granted a token right now, given HOL/setaside
    /// limits and grants already outstanding.
    pub fn sendable(&self) -> usize {
        let backlog = self.queue.len();
        let limit = match self.mode {
            SendMode::HoldHead => usize::from(!(self.head_pending || backlog == 0)),
            SendMode::Setaside(cap) => backlog.min(cap.saturating_sub(self.setaside.len())),
            SendMode::Forget => backlog,
        };
        limit.saturating_sub(self.granted as usize)
    }

    /// Whether this queue may take a token at `now` under `fairness`.
    pub fn eligible(&self, now: Cycle, fairness: FairnessPolicy) -> bool {
        if self.sendable() == 0 {
            return false;
        }
        match fairness {
            FairnessPolicy::None => true,
            FairnessPolicy::SitOut { .. } => now >= self.sit_until,
        }
    }

    /// Take a token: one more transmission is now owed. Updates fairness
    /// bookkeeping. Callers must have checked [`OutQueue::eligible`].
    pub fn take_grant(&mut self, now: Cycle, fairness: FairnessPolicy) {
        debug_assert!(self.sendable() > 0, "grant without a sendable packet");
        self.granted += 1;
        if let FairnessPolicy::SitOut {
            serve_quota,
            sit_out,
        } = fairness
        {
            self.consecutive_serves += 1;
            if self.consecutive_serves >= serve_quota {
                self.sit_until = now + Cycle::from(sit_out);
                self.consecutive_serves = 0;
            }
        }
    }

    /// Grants not yet consumed by a transmission.
    pub fn granted(&self) -> u32 {
        self.granted
    }

    /// Transmit one packet at `now` against an outstanding grant. Returns
    /// the flit to place on the ring, or `None` when no grant/packet is
    /// ready. The queue-side copy is updated per the send discipline.
    pub fn transmit(&mut self, now: Cycle) -> Option<T> {
        if self.granted == 0 {
            return None;
        }
        match self.mode {
            SendMode::HoldHead => {
                if self.head_pending {
                    return None;
                }
                let head = self.queue.front_mut()?;
                head.on_transmit(now);
                self.head_pending = true;
                self.granted -= 1;
                Some(*head)
            }
            SendMode::Setaside(_) => {
                let mut pkt = self.queue.pop_front()?;
                pkt.on_transmit(now);
                self.setaside.push(pkt);
                self.granted -= 1;
                Some(pkt)
            }
            SendMode::Forget => {
                let mut pkt = self.queue.pop_front()?;
                pkt.on_transmit(now);
                self.granted -= 1;
                Some(pkt)
            }
        }
    }

    /// Positive handshake: the packet reached the home. Releases the pending
    /// head or the setaside slot. Returns the acknowledged packet.
    pub fn ack(&mut self, id: u64) -> Option<T> {
        match self.mode {
            SendMode::HoldHead => {
                if self.head_pending && self.queue.front().map(QueueItem::id) == Some(id) {
                    self.head_pending = false;
                    return self.queue.pop_front();
                }
                None
            }
            SendMode::Setaside(_) => {
                let idx = self.setaside.iter().position(|p| p.id() == id)?;
                Some(self.setaside.swap_remove(idx))
            }
            SendMode::Forget => None,
        }
    }

    /// Negative handshake: the packet was dropped at a full home buffer and
    /// must be retransmitted. Returns it to the front of the queue.
    pub fn nack(&mut self, id: u64) -> bool {
        match self.mode {
            SendMode::HoldHead => {
                if self.head_pending && self.queue.front().map(QueueItem::id) == Some(id) {
                    self.head_pending = false; // head stays; becomes sendable again
                    true
                } else {
                    false
                }
            }
            SendMode::Setaside(_) => {
                if let Some(idx) = self.setaside.iter().position(|p| p.id() == id) {
                    let pkt = self.setaside.remove(idx);
                    self.queue.push_front(pkt);
                    true
                } else {
                    false
                }
            }
            SendMode::Forget => false,
        }
    }

    /// ACK-timeout expiry for packet `id` after its latest transmission.
    /// If the packet is still awaiting its handshake, it is treated like a
    /// NACK (made sendable again) unless it has already been transmitted
    /// `max_retries` times, in which case it is dropped for good. Timers are
    /// validated lazily, so expiries for packets whose handshake already
    /// arrived return [`TimeoutAction::Stale`].
    pub fn timeout(&mut self, id: u64, max_retries: u32) -> TimeoutAction<T> {
        match self.mode {
            SendMode::HoldHead => {
                if self.head_pending && self.queue.front().map(QueueItem::id) == Some(id) {
                    self.head_pending = false;
                    if self.queue.front().is_some_and(|p| p.sends() >= max_retries) {
                        match self.queue.pop_front() {
                            Some(pkt) => TimeoutAction::Abandon(pkt),
                            None => TimeoutAction::Stale,
                        }
                    } else {
                        TimeoutAction::Retry
                    }
                } else {
                    TimeoutAction::Stale
                }
            }
            SendMode::Setaside(_) => {
                if let Some(idx) = self.setaside.iter().position(|p| p.id() == id) {
                    let pkt = self.setaside.swap_remove(idx);
                    if pkt.sends() >= max_retries {
                        TimeoutAction::Abandon(pkt)
                    } else {
                        self.queue.push_front(pkt);
                        TimeoutAction::Retry
                    }
                } else {
                    TimeoutAction::Stale
                }
            }
            SendMode::Forget => TimeoutAction::Stale,
        }
    }

    /// Queued packets (including a pending head).
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// The packet at the queue head, if any (used by flow controls that gate
    /// on the head's destination, e.g. SWMR partitioned credits).
    pub fn peek_head(&self) -> Option<&T> {
        self.queue.front()
    }

    /// Packets waiting for handshakes in the setaside buffer.
    pub fn setaside_len(&self) -> usize {
        self.setaside.len()
    }

    /// Iterate queued packets front-to-back (including a pending head).
    pub fn iter_queue(&self) -> impl Iterator<Item = &T> {
        self.queue.iter()
    }

    /// Iterate setaside packets in slot order.
    pub fn iter_setaside(&self) -> impl Iterator<Item = &T> {
        self.setaside.iter()
    }

    /// Whether the queue head has been transmitted and awaits its handshake.
    pub fn head_is_pending(&self) -> bool {
        self.head_pending
    }

    /// Ids of packets transmitted but not yet resolved by a handshake: the
    /// pending head (`HoldHead`) or the setaside contents (`Setaside`). Forget
    /// mode tracks nothing. Used by the ACK-pairing invariant.
    pub fn unresolved_ids(&self) -> Vec<u64> {
        match self.mode {
            SendMode::HoldHead => {
                if self.head_pending {
                    self.queue.front().map(QueueItem::id).into_iter().collect()
                } else {
                    Vec::new()
                }
            }
            SendMode::Setaside(_) => self.setaside.iter().map(QueueItem::id).collect(),
            SendMode::Forget => Vec::new(),
        }
    }

    /// Class of the packet the next transmission would send (the queue
    /// head), or `None` when the queue is empty. All three send modes
    /// transmit from the queue front, so this is *the* class an admission
    /// decision at grant time applies to.
    #[inline]
    pub fn head_class(&self) -> Option<u8> {
        self.queue.front().map(QueueItem::class)
    }

    /// Fairness bookkeeping `(consecutive_serves, sit_until)`, for canonical
    /// state-keying.
    pub fn fairness_state(&self) -> (u32, Cycle) {
        (self.consecutive_serves, self.sit_until)
    }

    /// Whether the queue holds no state at all (for drain checks).
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.setaside.is_empty() && self.granted == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;

    fn pkt(id: u64) -> Packet {
        Packet {
            id,
            src_core: 0,
            src_node: 1,
            dst_node: 0,
            kind: PacketKind::Data,
            generated_at: 0,
            enqueued_at: 0,
            sent_at: 0,
            sends: 0,
            measured: false,
            tag: 0,
            class: 0,
        }
    }

    const NOFAIR: FairnessPolicy = FairnessPolicy::None;

    #[test]
    fn hold_head_blocks_until_ack() {
        let mut q = OutQueue::new(SendMode::HoldHead);
        q.push(pkt(1));
        q.push(pkt(2));
        assert_eq!(q.sendable(), 1, "only the head is sendable");
        q.take_grant(0, NOFAIR);
        assert_eq!(q.sendable(), 0, "grant consumes the slot");
        let sent = q.transmit(5).unwrap();
        assert_eq!(sent.id, 1);
        assert_eq!(sent.sent_at, 5);
        assert_eq!(sent.sends, 1);
        assert_eq!(q.sendable(), 0, "HOL: head pending blocks packet 2");
        assert_eq!(q.backlog(), 2, "pending head stays in the queue");
        let acked = q.ack(1).unwrap();
        assert_eq!(acked.id, 1);
        assert_eq!(q.sendable(), 1, "packet 2 now at head");
        assert_eq!(q.backlog(), 1);
    }

    #[test]
    fn hold_head_nack_retransmits_same_packet() {
        let mut q = OutQueue::new(SendMode::HoldHead);
        q.push(pkt(1));
        q.take_grant(0, NOFAIR);
        q.transmit(1).unwrap();
        assert!(q.nack(1));
        assert_eq!(q.sendable(), 1, "head sendable again after NACK");
        q.take_grant(2, NOFAIR);
        let again = q.transmit(3).unwrap();
        assert_eq!(again.id, 1);
        assert_eq!(again.sends, 2, "retransmission counted");
    }

    #[test]
    fn setaside_frees_the_head() {
        let mut q = OutQueue::new(SendMode::Setaside(2));
        q.push(pkt(1));
        q.push(pkt(2));
        q.push(pkt(3));
        assert_eq!(q.sendable(), 2, "limited by setaside capacity");
        q.take_grant(0, NOFAIR);
        q.transmit(1).unwrap();
        assert_eq!(q.setaside_len(), 1);
        assert_eq!(q.sendable(), 1);
        q.take_grant(1, NOFAIR);
        q.transmit(2).unwrap();
        assert_eq!(q.setaside_len(), 2);
        assert_eq!(q.sendable(), 0, "setaside full blocks further sends");
        assert!(q.ack(1).is_some());
        assert_eq!(q.sendable(), 1, "ack frees a setaside slot");
    }

    #[test]
    fn setaside_nack_returns_to_head() {
        let mut q = OutQueue::new(SendMode::Setaside(2));
        q.push(pkt(1));
        q.push(pkt(2));
        q.take_grant(0, NOFAIR);
        q.transmit(1).unwrap();
        assert!(q.nack(1));
        assert_eq!(q.setaside_len(), 0);
        assert_eq!(q.backlog(), 2);
        q.take_grant(2, NOFAIR);
        let next = q.transmit(3).unwrap();
        assert_eq!(next.id, 1, "NACKed packet retransmits before followers");
        assert_eq!(next.sends, 2);
    }

    #[test]
    fn forget_mode_drops_on_send() {
        let mut q = OutQueue::new(SendMode::Forget);
        q.push(pkt(1));
        q.push(pkt(2));
        assert_eq!(q.sendable(), 2);
        q.take_grant(0, NOFAIR);
        q.take_grant(0, NOFAIR);
        assert_eq!(q.sendable(), 0);
        let a = q.transmit(1).unwrap();
        let b = q.transmit(2).unwrap();
        assert_eq!((a.id, b.id), (1, 2));
        assert!(q.is_idle());
        assert!(q.ack(1).is_none(), "forget mode ignores handshakes");
        assert!(!q.nack(2));
    }

    #[test]
    fn transmit_without_grant_is_none() {
        let mut q = OutQueue::new(SendMode::Forget);
        q.push(pkt(1));
        assert!(q.transmit(0).is_none());
    }

    #[test]
    fn ack_for_unknown_id_is_none() {
        let mut q = OutQueue::new(SendMode::Setaside(2));
        q.push(pkt(1));
        q.take_grant(0, NOFAIR);
        q.transmit(1).unwrap();
        assert!(q.ack(99).is_none());
        assert!(!q.nack(99));
    }

    #[test]
    fn timeout_retries_a_pending_head() {
        let mut q = OutQueue::new(SendMode::HoldHead);
        q.push(pkt(1));
        q.take_grant(0, NOFAIR);
        q.transmit(1).unwrap();
        assert_eq!(q.sendable(), 0, "pending head blocks");
        assert_eq!(q.timeout(1, 16), TimeoutAction::Retry);
        assert_eq!(q.sendable(), 1, "timeout makes the head sendable again");
        q.take_grant(2, NOFAIR);
        let again = q.transmit(3).unwrap();
        assert_eq!(again.id, 1);
        assert_eq!(again.sends, 2);
    }

    #[test]
    fn timeout_requeues_a_setaside_packet_ahead_of_followers() {
        let mut q = OutQueue::new(SendMode::Setaside(2));
        q.push(pkt(1));
        q.push(pkt(2));
        q.take_grant(0, NOFAIR);
        q.transmit(1).unwrap();
        assert_eq!(q.timeout(1, 16), TimeoutAction::Retry);
        assert_eq!(q.setaside_len(), 0);
        q.take_grant(2, NOFAIR);
        let next = q.transmit(3).unwrap();
        assert_eq!(next.id, 1, "timed-out packet retransmits before followers");
    }

    #[test]
    fn timeout_is_stale_after_ack_nack_or_for_forget_mode() {
        let mut q = OutQueue::new(SendMode::Setaside(2));
        q.push(pkt(1));
        q.take_grant(0, NOFAIR);
        q.transmit(1).unwrap();
        q.ack(1).unwrap();
        assert_eq!(q.timeout(1, 16), TimeoutAction::Stale, "ACK beat the timer");

        let mut q = OutQueue::new(SendMode::HoldHead);
        q.push(pkt(7));
        q.take_grant(0, NOFAIR);
        q.transmit(1).unwrap();
        assert!(q.nack(7));
        assert_eq!(
            q.timeout(7, 16),
            TimeoutAction::Stale,
            "NACK already requeued it"
        );

        let mut q = OutQueue::new(SendMode::Forget);
        q.push(pkt(9));
        q.take_grant(0, NOFAIR);
        q.transmit(1).unwrap();
        assert_eq!(q.timeout(9, 16), TimeoutAction::Stale);
    }

    #[test]
    fn timeout_abandons_after_retry_budget() {
        let mut q = OutQueue::new(SendMode::HoldHead);
        q.push(pkt(1));
        for attempt in 1..=3u64 {
            q.take_grant(attempt, NOFAIR);
            q.transmit(attempt).unwrap();
            let action = q.timeout(1, 3);
            if attempt < 3 {
                assert_eq!(action, TimeoutAction::Retry);
            } else {
                assert!(
                    matches!(action, TimeoutAction::Abandon(p) if p.id == 1),
                    "expected abandon of packet 1, got {action:?}"
                );
            }
        }
        assert!(q.is_idle(), "abandoned packet leaves the queue");
    }

    #[test]
    fn fairness_sit_out_after_quota() {
        let fair = FairnessPolicy::SitOut {
            serve_quota: 2,
            sit_out: 10,
        };
        let mut q = OutQueue::new(SendMode::Forget);
        for i in 0..5 {
            q.push(pkt(i));
        }
        assert!(q.eligible(0, fair));
        q.take_grant(0, fair);
        q.transmit(1);
        assert!(q.eligible(1, fair));
        q.take_grant(1, fair); // second grant hits the quota
        q.transmit(2);
        assert!(!q.eligible(2, fair), "sitting out");
        assert!(!q.eligible(10, fair), "still sitting at 10");
        assert!(q.eligible(11, fair), "sit-out over");
    }

    #[test]
    fn fairness_none_never_sits() {
        let mut q = OutQueue::new(SendMode::Forget);
        for i in 0..100 {
            q.push(pkt(i));
        }
        for t in 0..100u64 {
            assert!(q.eligible(t, NOFAIR));
            q.take_grant(t, NOFAIR);
            q.transmit(t);
        }
        assert!(q.is_idle());
    }

    #[test]
    #[should_panic(expected = "setaside capacity")]
    fn setaside_zero_capacity_rejected() {
        OutQueue::<Packet>::new(SendMode::Setaside(0));
    }
}
