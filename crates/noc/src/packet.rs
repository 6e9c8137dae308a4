//! Packets (single-flit, per the paper's wide-channel assumption).

use pnoc_sim::Cycle;
use serde::{Deserialize, Serialize};

pub use pnoc_traffic::PacketKind;

/// One single-flit packet.
///
/// `Copy` by design: packets are small scalar records that get duplicated
/// between a sender's queue/setaside and the in-flight ring slot (a sent
/// packet cannot leave the sender until its handshake arrives — §III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Unique id within a simulation run.
    pub id: u64,
    /// Injecting core (global index).
    pub src_core: u32,
    /// Node of the injecting core.
    pub src_node: u32,
    /// Destination (home) node.
    pub dst_node: u32,
    /// Protocol role.
    pub kind: PacketKind,
    /// Cycle the core generated the packet.
    pub generated_at: Cycle,
    /// Cycle the packet entered the sender's output queue (after the
    /// injection router pipeline).
    pub enqueued_at: Cycle,
    /// Cycle of the most recent transmission onto the ring (0 = never sent).
    pub sent_at: Cycle,
    /// Number of transmissions so far (>1 means retransmitted after NACK or
    /// recirculated past a full home buffer).
    pub sends: u32,
    /// Whether this packet is inside the measurement window.
    pub measured: bool,
    /// Caller-provided correlation tag (the CMP model stores MSHR ids here).
    pub tag: u64,
    /// Traffic class (multi-tenant `QoS`; 0 = the default class). Drives
    /// per-class admission control and per-class latency recording.
    #[serde(default)]
    pub class: u8,
}

impl Packet {
    /// Latency from generation to a given delivery cycle.
    pub fn latency_at(&self, delivered: Cycle) -> u64 {
        delivered.saturating_sub(self.generated_at)
    }

    /// Retransmission count (transmissions beyond the first).
    pub fn retransmissions(&self) -> u32 {
        self.sends.saturating_sub(1)
    }
}

/// Queue-side stand-in for a [`Packet`] parked in a [`PacketArena`]: the id
/// (handshake matching), the arena handle, and a mirror of the send count
/// (retry budgets, state keys). 16 bytes instead of 72 — sender queues,
/// setaside buffers and the data ring shuffle these, never whole packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketRef {
    /// The packet's unique id (mirror of `Packet::id`).
    pub id: u64,
    /// Arena handle of the full payload.
    pub handle: u32,
    /// Mirror of `Packet::sends`, bumped at transmission; the arena copy is
    /// synced by the channel when the flit goes on the ring.
    pub sends: u32,
    /// Mirror of `Packet::class` — admission control reads the head class
    /// at grant time without dereferencing the arena.
    pub class: u8,
}

/// An in-flight flit on the data ring: the arena handle plus a snapshot of
/// everything the home inspects *before* committing to accept the packet.
///
/// The snapshot matters for handshake modes, where the ring flit aliases a
/// sender-owned arena slot:
///
/// - A timeout retransmission restamps `Packet::{sent_at, sends}` while an
///   earlier flit of the same packet may still be in flight; the delivered
///   copy must carry the stamps of the send that produced *this* flit.
/// - Under ACK loss, a duplicate retransmission can still be in flight when
///   the original's (re-)ACK reaches the sender and frees the arena slot.
///   Such a stale flit must traverse the fault draw, the arrival trace and
///   duplicate suppression without touching the arena at all — everything
///   those paths read (`id`, `src`, `sent_at`, `sends`) lives here.
///
/// The arena is dereferenced only on the accept path, which stale flits
/// never reach: a slot freed while its flit is in flight was freed by an
/// ACK, an ACK implies the id is in `accepted_ids`, and suppression runs
/// before the payload copy-out. (Abandon cannot strand a flit: the timeout
/// exceeds the flight time, so every flit of an abandoned packet has
/// already arrived when the timer fires.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlitRef {
    /// The packet's unique id (duplicate suppression, traces, NACKs).
    pub id: u64,
    /// Arena handle of the full payload. Only valid to dereference on the
    /// accept path — see the type-level docs.
    pub handle: u32,
    /// `Packet::sends` as of this flit's transmission.
    pub sends: u32,
    /// Mirror of `Packet::src_node` (handshake addressing, traces).
    pub src: u32,
    /// Cycle this flit was put on the ring.
    pub sent_at: Cycle,
}

/// Slab allocator for in-network packet payloads.
///
/// One arena per channel: [`crate::channel::Channel::enqueue`] allocates,
/// the hot path moves `u32` handles through queues and ring slots, and the
/// payload is freed at its last use (delivery copy-out, handshake ACK,
/// abandon, or fault loss). The free list is LIFO, so allocation order —
/// and with it every downstream iteration order — is deterministic.
///
/// Debug builds shadow the slots with an occupancy mask and panic on
/// double-free or use-after-free; release builds carry no overhead.
#[derive(Debug, Clone, Default)]
pub struct PacketArena {
    slots: Vec<Packet>,
    free: Vec<u32>,
    live: usize,
    #[cfg(debug_assertions)]
    occupied: Vec<bool>,
}

impl PacketArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Park `pkt` and return its handle. Reuses the most recently freed
    /// slot, growing only when the free list is empty.
    #[inline]
    pub fn alloc(&mut self, pkt: Packet) -> u32 {
        self.live += 1;
        if let Some(h) = self.free.pop() {
            self.slots[h as usize] = pkt;
            #[cfg(debug_assertions)]
            {
                debug_assert!(
                    !self.occupied[h as usize],
                    "arena slot reallocated while live"
                );
                self.occupied[h as usize] = true;
            }
            h
        } else {
            let h = crate::convert::narrow_u32(self.slots.len());
            self.slots.push(pkt);
            #[cfg(debug_assertions)]
            self.occupied.push(true);
            h
        }
    }

    /// The payload behind `handle`.
    #[inline]
    pub fn get(&self, handle: u32) -> &Packet {
        #[cfg(debug_assertions)]
        debug_assert!(
            self.occupied[handle as usize],
            "arena read of freed handle {handle}"
        );
        &self.slots[handle as usize]
    }

    /// Mutable payload access (the channel syncs `sent_at`/`sends` here at
    /// transmission).
    #[inline]
    pub fn get_mut(&mut self, handle: u32) -> &mut Packet {
        #[cfg(debug_assertions)]
        debug_assert!(
            self.occupied[handle as usize],
            "arena write to freed handle {handle}"
        );
        &mut self.slots[handle as usize]
    }

    /// Release `handle` back to the free list. The payload bits stay in
    /// place until the slot is reallocated; debug builds reject any further
    /// access.
    #[inline]
    pub fn free(&mut self, handle: u32) {
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                self.occupied[handle as usize],
                "arena double-free of handle {handle}"
            );
            self.occupied[handle as usize] = false;
        }
        debug_assert!(self.live > 0, "arena live-count underflow");
        self.live -= 1;
        self.free.push(handle);
    }

    /// Number of live (allocated, not yet freed) payloads — the channel's
    /// packet-conservation invariant checks this against its queue and ring
    /// occupancy.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt() -> Packet {
        Packet {
            id: 1,
            src_core: 3,
            src_node: 0,
            dst_node: 5,
            kind: PacketKind::Request,
            generated_at: 10,
            enqueued_at: 12,
            sent_at: 0,
            sends: 0,
            measured: true,
            tag: 0,
            class: 0,
        }
    }

    #[test]
    fn latency_is_from_generation() {
        let p = pkt();
        assert_eq!(p.latency_at(30), 20);
        assert_eq!(p.latency_at(5), 0, "saturates instead of underflowing");
    }

    #[test]
    fn retransmissions_counted_from_second_send() {
        let mut p = pkt();
        assert_eq!(p.retransmissions(), 0);
        p.sends = 1;
        assert_eq!(p.retransmissions(), 0);
        p.sends = 3;
        assert_eq!(p.retransmissions(), 2);
    }

    #[test]
    fn arena_reuses_freed_slots_lifo() {
        let mut a = PacketArena::new();
        let h0 = a.alloc(pkt());
        let h1 = a.alloc(Packet { id: 2, ..pkt() });
        assert_eq!((h0, h1), (0, 1));
        assert_eq!(a.live(), 2);
        assert_eq!(a.get(h1).id, 2);
        a.free(h0);
        assert_eq!(a.live(), 1);
        // LIFO: the most recently freed slot is handed out next.
        let h2 = a.alloc(Packet { id: 3, ..pkt() });
        assert_eq!(h2, h0);
        assert_eq!(a.get(h2).id, 3);
        assert_eq!(a.live(), 2);
    }

    #[test]
    fn arena_mutation_is_visible_through_the_handle() {
        let mut a = PacketArena::new();
        let h = a.alloc(pkt());
        a.get_mut(h).sends = 7;
        a.get_mut(h).sent_at = 40;
        assert_eq!(a.get(h).sends, 7);
        assert_eq!(a.get(h).sent_at, 40);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "double-free")]
    fn arena_debug_build_catches_double_free() {
        let mut a = PacketArena::new();
        let h = a.alloc(pkt());
        a.free(h);
        a.free(h);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "freed handle")]
    fn arena_debug_build_catches_use_after_free() {
        let mut a = PacketArena::new();
        let h = a.alloc(pkt());
        a.free(h);
        let _ = a.get(h).id;
    }
}
