//! Flow control: how a sender's packet claims (and releases) home buffer
//! space.
//!
//! The paper's schemes split along one axis: *credit reservation* (a token
//! carries or embodies guaranteed buffer space, so arrivals can never
//! overflow) versus *handshake* (senders transmit optimistically and the
//! home answers with an ACK/NACK `R + 1` cycles later). This module owns
//! everything on that axis:
//!
//! * [`CreditFlow`] — the token channel's credit ledger (credits riding the
//!   token, uncommitted reimbursements, fault leaks);
//! * [`SlotFlow`] — the token slot's distributed reservations (one token =
//!   one committed buffer slot, in-flight accounting, lost reservations);
//! * [`HandshakeFlow`] — GHS/DHS: the ACK/NACK calendar, sender-side
//!   retransmit timers, and the accepted-id set for duplicate suppression;
//! * [`CirculationFlow`] — DHS with circulation: no handshake, no
//!   reservation — a full home reinjects the flit into its own channel.
//!
//! Every concrete flow implements the [`Flow`] trait. Every channel — in the
//! network, the bounded model checker and the tests alike — is a
//! monomorphized `Channel<A, F>` over the concrete pairing
//! [`crate::with_scheme!`] binds, so the per-cycle hooks below inline with
//! zero enum dispatch — a hook that is a no-op for the scheme (most of them
//! are, for most schemes) folds away entirely.
//!
//! The arbiter side of a scheme (who may transmit next) lives in
//! [`super::arbiter`]; a [`crate::channel::Channel`] composes one of each.

use crate::calendar::Calendar;
use crate::metrics::NetworkMetrics;
use crate::outqueue::{OutQueue, TimeoutAction};
use crate::packet::{FlitRef, Packet, PacketArena, PacketRef};
use crate::slots::SlotRing;
use pnoc_faults::{AckFate, ChannelInjector, RecoveryConfig};
use pnoc_obs::EventKind;
use pnoc_sim::Cycle;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use super::bitplane::{Planes, SortedIdSet};

/// An ACK/NACK in flight on the handshake channel.
#[derive(Debug, Clone, Copy)]
pub struct AckEvent {
    /// Sender node the handshake addresses.
    pub sender: usize,
    /// Packet id the handshake resolves.
    pub id: u64,
    /// `true` = ACK (accepted), `false` = NACK (dropped or corrupt).
    pub ok: bool,
}

/// What the flow-control layer may touch while deciding an arrival's fate.
/// Field-level borrows keep the hot path free of whole-`Channel` aliasing.
///
/// Arena ownership at arrival: for the credit-reserved schemes the ring
/// *owned* the flit's arena slot, so `accept` frees `handle` when it copies
/// the payload into the input buffer (or reinjects the bare handle, for
/// circulation). Handshake schemes transmit an aliased handle — the sender
/// keeps ownership until its ACK — so their `accept` never frees.
#[derive(Debug)]
pub struct ArrivalCx<'a> {
    /// Current cycle.
    pub now: Cycle,
    /// The home node id (trace-event addressing).
    pub home: usize,
    /// The home's ring segment (for circulation reinjects).
    pub home_seg: usize,
    /// Fixed handshake delay (`segments + 1`).
    pub handshake_delay: Cycle,
    /// Whether timeout/retransmit recovery is armed.
    pub recovery_enabled: bool,
    /// Whether the home buffer has room (queued + draining < capacity).
    pub has_room: bool,
    /// Arena handle of the arriving flit.
    pub handle: u32,
    /// The channel's packet arena.
    pub arena: &'a mut PacketArena,
    /// The home input buffer.
    pub input_queue: &'a mut VecDeque<Packet>,
    /// The data ring (circulation puts rejected flits back).
    pub data: &'a mut SlotRing<FlitRef>,
    /// Channel flag: a reinjection this cycle suppresses token emission.
    pub suppress_token: &'a mut bool,
}

/// The flow-control side of a scheme: buffer-space hooks called by the
/// channel phases and the arbiter sweeps. Every method except
/// [`Flow::may_emit`] and [`Flow::accept`] has a no-op (or constant)
/// default, so a concrete flow implements only the hooks its scheme uses
/// and a monomorphized channel pays nothing for the rest.
pub trait Flow {
    /// The handshake state, if this is a handshake scheme.
    #[inline]
    fn handshake(&self) -> Option<&HandshakeFlow> {
        None
    }

    /// Mutable access to the handshake state.
    #[inline]
    fn handshake_mut(&mut self) -> Option<&mut HandshakeFlow> {
        None
    }

    /// Whether a grant may be issued right now (token channel: a credit
    /// must ride the token; every other scheme gates elsewhere).
    #[inline]
    fn has_credit(&self) -> bool {
        true
    }

    /// A grant was issued by the *global* arbiter: spend the credit it
    /// carries.
    #[inline]
    fn spend_credit(&mut self) {}

    /// A grant was issued by the *distributed* arbiter: the token slot's
    /// reservation starts travelling with the grant.
    #[inline]
    fn on_grant(&mut self) {}

    /// The global token passed home: the token channel reimburses every
    /// credit freed since the last pass (paper Fig. 2a); GHS has nothing
    /// to do.
    #[inline]
    fn on_home_pass(&mut self) {}

    /// A buffer slot was freed by an ejection; for the token channel it
    /// becomes a reimbursable credit on the token's next home pass.
    #[inline]
    fn on_slot_freed(&mut self) {}

    /// The sweeping global token was destroyed by a fault. Token-channel
    /// credits ride on the token and die with it — an unrecoverable leak.
    /// (The GHS token carries nothing; it is fully replaced.)
    #[inline]
    fn on_sweeping_token_lost(&mut self, _m: &mut NetworkMetrics) {}

    /// `destroyed` distributed tokens were lost to faults. The token slot's
    /// reservations stay committed forever — a permanent leak of buffer
    /// capacity. (DHS re-emits every cycle, so a lost token costs one cycle
    /// of arbitration, nothing more.)
    #[inline]
    fn on_tokens_destroyed(&mut self, _destroyed: usize, _m: &mut NetworkMetrics) {}

    /// Whether the home may emit a distributed token this cycle:
    /// the token slot regenerates only while it has uncommitted buffer
    /// space; DHS emits unconditionally; circulation skips the cycle a
    /// reinjection virtually consumed.
    fn may_emit(
        &self,
        buffered: usize,
        tokens_out: usize,
        buffer_cap: usize,
        suppressed: bool,
    ) -> bool;

    /// A flit was destroyed in flight: the home never sees it, so no
    /// handshake fires and no buffer slot is touched; reservation-carrying
    /// schemes leak the space it had claimed.
    #[inline]
    fn on_data_lost(&mut self, _m: &mut NetworkMetrics) {}

    /// A flit arrived corrupted (CRC failure at the home). Receives the
    /// ring-side snapshot, not the payload: the flit may be a stale
    /// duplicate whose arena slot has already been released.
    #[inline]
    fn on_data_corrupt(&mut self, _flit: &FlitRef, _handshake_delay: Cycle) {}

    /// An intact, non-duplicate flit reached the home: accept it into the
    /// buffer, or apply the scheme's rejection behaviour (handshake NACK /
    /// circulation reinject). Credit-reserved schemes can never reject.
    fn accept(&mut self, pkt: Packet, cx: &mut ArrivalCx<'_>, m: &mut NetworkMetrics);

    /// Deliver this cycle's handshakes and fire expired ACK timers.
    /// A no-op for every scheme without a handshake channel; see
    /// [`HandshakeFlow::resolve_acks`] for the real one.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn resolve_acks(
        &mut self,
        _now: Cycle,
        _home: usize,
        _senders: &mut [OutQueue<PacketRef>],
        _arena: &mut PacketArena,
        _dist_of: &[usize],
        _planes: &mut Planes,
        _queued_total: &mut usize,
        _injector: Option<&mut ChannelInjector>,
        _recovery: &RecoveryConfig,
        _handshake_delay: Cycle,
        _m: &mut NetworkMetrics,
    ) {
    }

    /// Handshake events still in flight (0 for handshake-free schemes).
    #[inline]
    fn pending_acks(&self) -> usize {
        0
    }

    /// Credits riding the global token (token channel only).
    #[inline]
    fn credits(&self) -> Option<u32> {
        None
    }

    /// Credits freed by ejections, awaiting the token (token channel only).
    #[inline]
    fn uncommitted(&self) -> u32 {
        0
    }

    /// Reservations travelling with grants / flits (token slot only).
    #[inline]
    fn inflight(&self) -> u32 {
        0
    }

    /// Reservations destroyed by token-loss faults (token slot only).
    #[inline]
    fn lost_reservations(&self) -> u32 {
        0
    }

    /// Credits permanently destroyed by faults (token channel only).
    #[inline]
    fn leaked_credits(&self) -> u32 {
        0
    }
}

/// Token-channel credit ledger: the home's `input_buffer` credits ride the
/// global token and are reimbursed only when the token passes home.
#[derive(Debug, Clone)]
pub struct CreditFlow {
    /// Credits currently riding the token.
    pub credits: u32,
    /// Credits freed by ejections, awaiting the token's next home pass.
    pub uncommitted: u32,
    /// Credits permanently destroyed by faults (flits lost while holding a
    /// reservation, credits riding a destroyed token). Balances the
    /// conservation invariant `credits + uncommitted + outstanding + leaked
    /// == buffer_cap`.
    pub leaked: u32,
}

impl CreditFlow {
    /// A fresh ledger holding all `credits`.
    pub fn new(credits: u32) -> Self {
        Self {
            credits,
            uncommitted: 0,
            leaked: 0,
        }
    }
}

impl Flow for CreditFlow {
    #[inline]
    fn has_credit(&self) -> bool {
        self.credits > 0
    }

    #[inline]
    fn spend_credit(&mut self) {
        self.credits -= 1;
    }

    #[inline]
    fn on_home_pass(&mut self) {
        self.credits += self.uncommitted;
        self.uncommitted = 0;
    }

    #[inline]
    fn on_slot_freed(&mut self) {
        self.uncommitted += 1;
    }

    #[inline]
    fn on_sweeping_token_lost(&mut self, m: &mut NetworkMetrics) {
        m.credit_leaks += u64::from(self.credits);
        self.leaked += self.credits;
        self.credits = 0;
    }

    fn may_emit(&self, _: usize, _: usize, _: usize, _: bool) -> bool {
        unreachable!("global credit flow never pairs with distributed arbitration")
    }

    /// The credit reserved for this flit can never be reimbursed (the slot
    /// is never occupied, so it is never ejected): a permanent leak.
    #[inline]
    fn on_data_lost(&mut self, m: &mut NetworkMetrics) {
        self.leaked += 1;
        m.credit_leaks += 1;
    }

    /// Discarded at the home; generously return the credit (the flit
    /// itself is still gone for good — credit schemes cannot ask for a
    /// retransmission).
    #[inline]
    fn on_data_corrupt(&mut self, _flit: &FlitRef, _handshake_delay: Cycle) {
        self.uncommitted += 1;
    }

    fn accept(&mut self, pkt: Packet, cx: &mut ArrivalCx<'_>, _m: &mut NetworkMetrics) {
        // Credit-reserved: space is guaranteed by construction. Always-on
        // check: a violation here means corrupted credit state, which a
        // release-mode harness run must not silently pass through.
        assert!(cx.has_room, "reservation accounting violated");
        cx.arena.free(cx.handle);
        cx.input_queue.push_back(pkt);
    }

    #[inline]
    fn credits(&self) -> Option<u32> {
        Some(self.credits)
    }

    #[inline]
    fn uncommitted(&self) -> u32 {
        self.uncommitted
    }

    #[inline]
    fn leaked_credits(&self) -> u32 {
        self.leaked
    }
}

/// Token-slot reservations: each distributed token embodies one committed
/// buffer slot.
#[derive(Debug, Clone, Default)]
pub struct SlotFlow {
    /// Reservations travelling with granted tokens / flits in flight.
    pub inflight: u32,
    /// Reservations destroyed by token-loss faults. The home cannot observe
    /// the destruction, so the slots stay committed forever — this is the
    /// credit leak the handshake schemes are immune to.
    pub lost_reservations: u32,
}

impl Flow for SlotFlow {
    #[inline]
    fn on_grant(&mut self) {
        self.inflight += 1;
    }

    #[inline]
    fn on_tokens_destroyed(&mut self, destroyed: usize, m: &mut NetworkMetrics) {
        self.lost_reservations += crate::convert::narrow_u32(destroyed);
        m.credit_leaks += destroyed as u64;
    }

    #[inline]
    fn may_emit(
        &self,
        buffered: usize,
        tokens_out: usize,
        buffer_cap: usize,
        _suppressed: bool,
    ) -> bool {
        let committed =
            buffered + self.inflight as usize + self.lost_reservations as usize + tokens_out;
        committed < buffer_cap
    }

    /// The in-flight reservation is never returned (`inflight` stays
    /// elevated forever).
    #[inline]
    fn on_data_lost(&mut self, m: &mut NetworkMetrics) {
        m.credit_leaks += 1;
    }

    #[inline]
    fn on_data_corrupt(&mut self, _flit: &FlitRef, _handshake_delay: Cycle) {
        assert!(self.inflight > 0, "inflight underflow");
        self.inflight -= 1;
    }

    fn accept(&mut self, pkt: Packet, cx: &mut ArrivalCx<'_>, _m: &mut NetworkMetrics) {
        assert!(cx.has_room, "reservation accounting violated");
        assert!(self.inflight > 0, "inflight underflow");
        self.inflight -= 1;
        cx.arena.free(cx.handle);
        cx.input_queue.push_back(pkt);
    }

    #[inline]
    fn inflight(&self) -> u32 {
        self.inflight
    }

    #[inline]
    fn lost_reservations(&self) -> u32 {
        self.lost_reservations
    }
}

/// GHS/DHS handshake state: ACK/NACK events in flight, sender-side
/// retransmit timers, and the accepted-id set for duplicate suppression.
#[derive(Debug, Clone)]
pub struct HandshakeFlow {
    /// Handshake events in flight.
    pub acks: Calendar<AckEvent>,
    /// Armed ACK timers, earliest deadline first: `(deadline, sender, id)`.
    /// Entries are validated lazily against the sender queue when they
    /// fire, so stale timers (handshake arrived first) are harmless.
    pub ack_timers: BinaryHeap<Reverse<(Cycle, usize, u64)>>,
    /// Packet ids already accepted into the input buffer, kept while
    /// recovery is enabled so a retransmission after a *lost ACK* is
    /// discarded (and re-ACKed) instead of delivered twice.
    pub accepted_ids: SortedIdSet,
    /// Whether the scheme uses setaside buffers (`setaside > 0`): sent
    /// packets leave the queue at transmission and return on NACK, instead
    /// of blocking the head until their handshake resolves.
    pub setaside: bool,
}

impl HandshakeFlow {
    /// Handshake state for a ring of `segments` segments (the calendar
    /// horizon covers the fixed `segments + 1` handshake delay).
    pub fn new(segments: usize, setaside: bool) -> Self {
        Self {
            acks: Calendar::new(segments + 2),
            ack_timers: BinaryHeap::new(),
            accepted_ids: SortedIdSet::new(),
            setaside,
        }
    }

    /// Deliver this cycle's handshakes to their senders, then fire expired
    /// ACK timers. `queued_total` is the channel's cached cross-sender
    /// backlog, adjusted here exactly as the send-mode bookkeeping demands;
    /// `planes` are the channel's per-node predicate planes, refreshed
    /// after every queue mutation (ACKs unblock `HoldHead` heads, NACKs and
    /// timeouts re-queue setaside packets). An ACK or abandon retires the
    /// sender's retained copy — the last owner of the arena payload — so
    /// both release the handle here.
    #[allow(clippy::too_many_arguments)]
    pub fn resolve_acks(
        &mut self,
        now: Cycle,
        home: usize,
        senders: &mut [OutQueue<PacketRef>],
        arena: &mut PacketArena,
        dist_of: &[usize],
        planes: &mut Planes,
        queued_total: &mut usize,
        mut injector: Option<&mut ChannelInjector>,
        recovery: &RecoveryConfig,
        handshake_delay: Cycle,
        m: &mut NetworkMetrics,
    ) {
        // Quiet-cycle early-out: no handshakes in flight and no armed
        // timers. The calendar frontier still advances (O(1)) so a later
        // schedule sees a current horizon.
        if self.acks.is_empty() && self.ack_timers.is_empty() {
            self.acks.fast_forward(now);
            return;
        }
        let setaside = self.setaside;
        for ev in self.acks.drain(now) {
            // Handshake-channel fault: the pulse never reaches the sender.
            // The sender learns nothing; with recovery enabled its ACK timer
            // eventually retransmits, without it the packet wedges.
            if let Some(inj) = injector.as_deref_mut() {
                if inj.active() && inj.ack_fate(handshake_delay) == AckFate::Lost {
                    m.faults_acks_lost += 1;
                    m.trace(now, home, ev.sender, ev.id, EventKind::AckLost);
                    continue;
                }
            }
            let q = &mut senders[ev.sender];
            if ev.ok {
                if let Some(released) = q.ack(ev.id) {
                    arena.free(released.handle);
                    m.trace(now, home, ev.sender, ev.id, EventKind::Ack);
                    // HoldHead keeps the packet queued until the ACK:
                    // account for its departure now. Setaside removed it
                    // from the queue at transmission time.
                    if !setaside {
                        *queued_total -= 1;
                    }
                } else {
                    // A re-ACK for a suppressed duplicate can land after the
                    // first ACK already released the packet; only recovery
                    // produces that. Always-on: an unexpected ACK in a
                    // recovery-free run means the handshake FSM desynced.
                    assert!(recovery.enabled, "ACK for unknown packet {}", ev.id);
                }
            } else if q.nack(ev.id) {
                m.retransmissions += 1;
                m.trace(now, home, ev.sender, ev.id, EventKind::Nack);
                // Setaside NACK pushes the packet back into the queue.
                if setaside {
                    *queued_total += 1;
                }
            } else {
                // The packet already timed out and retransmitted; this NACK
                // answers a transmission the sender no longer tracks. Only
                // recovery can produce that race.
                assert!(recovery.enabled, "NACK for unknown packet {}", ev.id);
            }
            planes.refresh(dist_of[ev.sender], &senders[ev.sender]);
        }
        // Expired ACK timers (armed per transmission when recovery is on).
        // A timer firing while the packet still awaits its handshake means
        // the flit or its ACK was lost: retransmit, like a NACK, under
        // exponential backoff and a bounded retry budget.
        while let Some(&Reverse((deadline, sender, id))) = self.ack_timers.peek() {
            if deadline > now {
                break;
            }
            self.ack_timers.pop();
            match senders[sender].timeout(id, recovery.max_retries) {
                TimeoutAction::Retry => {
                    m.timeout_retransmissions += 1;
                    m.trace(now, home, sender, id, EventKind::TimeoutRetransmit);
                    // Setaside: the packet moved back from setaside into the
                    // queue, mirroring the NACK bookkeeping above.
                    if setaside {
                        *queued_total += 1;
                    }
                }
                TimeoutAction::Abandon(dropped) => {
                    arena.free(dropped.handle);
                    m.abandoned += 1;
                    m.trace(now, home, sender, id, EventKind::Abandon);
                    // A HoldHead abandon pops the pending head off the queue.
                    if !setaside {
                        *queued_total -= 1;
                    }
                }
                TimeoutAction::Stale => {}
            }
            planes.refresh(dist_of[sender], &senders[sender]);
        }
    }
}

impl Flow for HandshakeFlow {
    #[inline]
    fn handshake(&self) -> Option<&HandshakeFlow> {
        Some(self)
    }

    #[inline]
    fn handshake_mut(&mut self) -> Option<&mut HandshakeFlow> {
        Some(self)
    }

    #[inline]
    fn may_emit(&self, _: usize, _: usize, _: usize, _: bool) -> bool {
        true
    }

    /// CRC failure ⇒ NACK; the sender retransmits exactly as after a
    /// full-buffer drop.
    #[inline]
    fn on_data_corrupt(&mut self, flit: &FlitRef, handshake_delay: Cycle) {
        self.acks.schedule(
            flit.sent_at + handshake_delay,
            AckEvent {
                sender: flit.src as usize,
                id: flit.id,
                ok: false,
            },
        );
    }

    fn accept(&mut self, pkt: Packet, cx: &mut ArrivalCx<'_>, m: &mut NetworkMetrics) {
        let ack_at = pkt.sent_at + cx.handshake_delay;
        debug_assert!(ack_at > cx.now, "handshake must arrive in the future");
        if cx.has_room {
            self.acks.schedule(
                ack_at,
                AckEvent {
                    sender: pkt.src_node as usize,
                    id: pkt.id,
                    ok: true,
                },
            );
            if cx.recovery_enabled {
                self.accepted_ids.insert(pkt.id);
            }
            cx.input_queue.push_back(pkt);
        } else {
            // Drop; the sender retransmits on NACK (§III-A).
            m.drops += 1;
            m.trace(
                cx.now,
                cx.home,
                pkt.src_node as usize,
                pkt.id,
                EventKind::Drop,
            );
            self.acks.schedule(
                ack_at,
                AckEvent {
                    sender: pkt.src_node as usize,
                    id: pkt.id,
                    ok: false,
                },
            );
        }
    }

    #[inline]
    fn resolve_acks(
        &mut self,
        now: Cycle,
        home: usize,
        senders: &mut [OutQueue<PacketRef>],
        arena: &mut PacketArena,
        dist_of: &[usize],
        planes: &mut Planes,
        queued_total: &mut usize,
        injector: Option<&mut ChannelInjector>,
        recovery: &RecoveryConfig,
        handshake_delay: Cycle,
        m: &mut NetworkMetrics,
    ) {
        HandshakeFlow::resolve_acks(
            self,
            now,
            home,
            senders,
            arena,
            dist_of,
            planes,
            queued_total,
            injector,
            recovery,
            handshake_delay,
            m,
        );
    }

    #[inline]
    fn pending_acks(&self) -> usize {
        self.acks.pending()
    }
}

/// DHS with circulation: no handshake, no reservation — a full home
/// reinjects the flit into its own data channel (§III-C). Stateless; the
/// per-cycle suppression flag lives on the channel.
#[derive(Debug, Clone, Default)]
pub struct CirculationFlow;

impl Flow for CirculationFlow {
    #[inline]
    fn may_emit(&self, _: usize, _: usize, _: usize, suppressed: bool) -> bool {
        !suppressed
    }

    fn accept(&mut self, pkt: Packet, cx: &mut ArrivalCx<'_>, m: &mut NetworkMetrics) {
        if cx.has_room {
            cx.arena.free(cx.handle);
            cx.input_queue.push_back(pkt);
        } else {
            // Reinject: the packet stays on the ring for another loop; the
            // home consumes this cycle's token virtually (§III-C). Only the
            // handle goes back on the ring — the payload never moves.
            let live = cx.arena.get_mut(cx.handle);
            live.sends += 1;
            live.sent_at = cx.now; // next arrival check in R cycles
            cx.data.put(
                cx.home_seg,
                FlitRef {
                    id: live.id,
                    handle: cx.handle,
                    sends: live.sends,
                    src: live.src_node,
                    sent_at: cx.now,
                },
            );
            *cx.suppress_token = true;
            m.circulations += 1;
            m.trace(
                cx.now,
                cx.home,
                pkt.src_node as usize,
                pkt.id,
                EventKind::Circulate,
            );
        }
    }
}
