//! The scheme pipeline: arbitration × flow control, composed at
//! construction.
//!
//! Every scheme the paper evaluates is a pairing of one [`Arbiter`]
//! strategy (who may transmit next) with one [`Flow`] strategy (how
//! buffer space is claimed and released):
//!
//! | Scheme              | Arbitration                       | Flow control        |
//! |---------------------|-----------------------------------|---------------------|
//! | Token channel       | [`GlobalArbiter`] (one token)     | [`CreditFlow`]      |
//! | GHS (± setaside)    | [`GlobalArbiter`] (one token)     | [`HandshakeFlow`]   |
//! | Token slot          | [`DistributedArbiter`] (stream)   | [`SlotFlow`]        |
//! | DHS (± setaside)    | [`DistributedArbiter`] (stream)   | [`HandshakeFlow`]   |
//! | DHS w/ circulation  | [`DistributedArbiter`] (stream)   | [`CirculationFlow`] |
//!
//! [`with_scheme!`](crate::with_scheme) is the one place that maps a
//! [`Scheme`](crate::Scheme) to its pairing: each match arm binds the
//! concrete arbiter and flow values, so the caller's body compiles once per
//! pairing with both layers' hooks inlined and zero enum dispatch. The
//! network builds its channels through it, and so do the bounded model
//! checker ([`crate::fsm::ChannelModel`]) and the channel tests — every one
//! of them runs the same monomorphized [`crate::channel::Channel`] types.
//! Adding a scheme variant means writing (or reusing) one arbiter and one
//! flow implementation and one arm here, not editing every phase of a
//! monolithic channel.
//!
//! The layers meet only at the narrow hooks on [`Flow`]
//! (`has_credit`/`spend_credit` for credit-gated grants, `may_emit` for
//! token regeneration, `on_home_pass` for reimbursement, fault hooks for
//! leak accounting), so each side can be unit-tested in isolation — see the
//! tests in [`arbiter`] and [`flow`]. Per-node predicates (sendable,
//! granted, …) live in the packed [`bitplane`] layer both sides scan and
//! refresh.

pub mod admission;
pub mod arbiter;
pub mod bitplane;
pub mod flow;

pub use admission::AdmissionCtl;
pub use arbiter::{Arbiter, DistributedArbiter, GlobalArbiter, GlobalTokenState, TokenCx};
pub use bitplane::{BitPlane, ClassPlanes, Planes, SortedIdSet};
pub use flow::{AckEvent, ArrivalCx, CirculationFlow, CreditFlow, Flow, HandshakeFlow, SlotFlow};

use crate::config::NetworkConfig;

/// Run `body` with `arbiter` and `flow` bound to the concrete
/// (arbiter, flow) pairing `cfg.scheme` selects, freshly constructed for
/// `cfg`. Each arm binds different types, so `body` is compiled once per
/// pairing; its value is the value of the whole expression.
///
/// ```
/// use pnoc_noc::schemes::{Arbiter, Flow};
/// use pnoc_noc::{with_scheme, NetworkConfig, Scheme};
///
/// let cfg = NetworkConfig::small(Scheme::TokenChannel); // buffer 4
/// let (tokens, credits) = with_scheme!(&cfg, |arbiter, flow| {
///     (arbiter.outstanding_tokens(), flow.credits())
/// });
/// assert_eq!((tokens, credits), (0, Some(4)));
/// ```
#[macro_export]
macro_rules! with_scheme {
    ($cfg:expr, |$arbiter:ident, $flow:ident| $body:expr) => {{
        let cfg: &$crate::NetworkConfig = $cfg;
        match cfg.scheme {
            $crate::Scheme::TokenChannel => {
                let $arbiter = $crate::schemes::GlobalArbiter::new();
                let $flow =
                    $crate::schemes::CreditFlow::new($crate::convert::narrow_u32(cfg.input_buffer));
                $body
            }
            $crate::Scheme::Ghs { setaside } => {
                let $arbiter = $crate::schemes::GlobalArbiter::new();
                let $flow = $crate::schemes::HandshakeFlow::new(cfg.ring_segments, setaside > 0);
                $body
            }
            $crate::Scheme::TokenSlot => {
                let $arbiter = $crate::schemes::DistributedArbiter::new();
                let $flow = $crate::schemes::SlotFlow::default();
                $body
            }
            $crate::Scheme::Dhs { setaside } => {
                let $arbiter = $crate::schemes::DistributedArbiter::new();
                let $flow = $crate::schemes::HandshakeFlow::new(cfg.ring_segments, setaside > 0);
                $body
            }
            $crate::Scheme::DhsCirculation => {
                let $arbiter = $crate::schemes::DistributedArbiter::new();
                let $flow = $crate::schemes::CirculationFlow;
                $body
            }
        }
    }};
}

/// Type names of the (arbiter, flow) pairing [`with_scheme!`](crate::with_scheme)
/// binds for `cfg` — what a constructor taking a caller-supplied pairing
/// checks it against.
pub fn pairing_names(cfg: &NetworkConfig) -> (&'static str, &'static str) {
    crate::with_scheme!(cfg, |arbiter, flow| (
        std::any::type_name_of_val(&arbiter),
        std::any::type_name_of_val(&flow)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FairnessPolicy, Scheme};
    use crate::metrics::NetworkMetrics;
    use crate::outqueue::{OutQueue, SendMode};
    use crate::packet::{Packet, PacketArena, PacketKind, PacketRef};

    fn pkt(id: u64, src: usize) -> Packet {
        Packet {
            id,
            src_core: (src * 2) as u32,
            src_node: src as u32,
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

    /// A 16-node, 4-segment test harness around one arbiter/flow pairing.
    struct Rig {
        senders: Vec<OutQueue<PacketRef>>,
        by_distance: Vec<usize>,
        dist_of: Vec<usize>,
        suppress: bool,
        planes: Planes,
    }

    impl Rig {
        fn new(mode: SendMode) -> Self {
            let nodes = 16;
            let home = 0;
            let mut by_distance = vec![0; nodes - 1];
            let mut dist_of = vec![usize::MAX; nodes];
            for (d, slot) in by_distance.iter_mut().enumerate() {
                let n = (home + 1 + d) % nodes;
                *slot = n;
                dist_of[n] = d;
            }
            Self {
                senders: (0..nodes).map(|_| OutQueue::new(mode)).collect(),
                by_distance,
                dist_of,
                suppress: false,
                planes: Planes::new(nodes - 1),
            }
        }

        fn cx(&mut self, now: u64) -> TokenCx<'_> {
            TokenCx {
                now,
                home: 0,
                fairness: FairnessPolicy::None,
                nodes: 16,
                step: 4,
                watchdog: 10,
                by_distance: &self.by_distance,
                dist_of: &self.dist_of,
                senders: &mut self.senders,
                planes: &mut self.planes,
                buffered: 0,
                buffer_cap: 4,
                suppress_token: &mut self.suppress,
                admission: None,
                injector: None,
            }
        }

        fn enqueue(&mut self, p: Packet) {
            let src = p.src_node as usize;
            // The rig exercises arbitration only — a dummy handle stands in
            // for the arena the real channel owns.
            self.senders[src].push(PacketRef {
                id: p.id,
                handle: 0,
                sends: 0,
                class: p.class,
            });
            self.refresh(src);
        }

        fn refresh(&mut self, node: usize) {
            self.planes.refresh(self.dist_of[node], &self.senders[node]);
        }
    }

    #[test]
    fn with_scheme_pairs_every_scheme_correctly() {
        use std::any::type_name;
        // The table in the module docs, written out independently of
        // `with_scheme!`.
        let (global, distributed) = (
            type_name::<GlobalArbiter>(),
            type_name::<DistributedArbiter>(),
        );
        let handshake = type_name::<HandshakeFlow>();
        let expected = [
            (Scheme::TokenChannel, global, type_name::<CreditFlow>()),
            (Scheme::Ghs { setaside: 0 }, global, handshake),
            (Scheme::Ghs { setaside: 4 }, global, handshake),
            (Scheme::TokenSlot, distributed, type_name::<SlotFlow>()),
            (Scheme::Dhs { setaside: 0 }, distributed, handshake),
            (Scheme::Dhs { setaside: 4 }, distributed, handshake),
            (
                Scheme::DhsCirculation,
                distributed,
                type_name::<CirculationFlow>(),
            ),
        ];
        let schemes: Vec<Scheme> = expected.iter().map(|e| e.0).collect();
        assert_eq!(schemes, Scheme::paper_set(4), "table covers the paper set");
        for (scheme, arbiter, flow) in expected {
            let cfg = NetworkConfig::small(scheme);
            assert_eq!(arbiter == global, scheme.is_global(), "{scheme:?}");
            assert_eq!(pairing_names(&cfg), (arbiter, flow), "{scheme:?}");
            // The bound pair is constructed for `cfg`: no tokens out yet,
            // the token channel's token starts with one credit per buffer
            // slot, and only the handshake schemes carry handshake state,
            // with setaside buffers exactly when the scheme has them.
            crate::with_scheme!(&cfg, |arbiter, flow| {
                assert_eq!(arbiter.outstanding_tokens(), 0, "{scheme:?}");
                let credits = (scheme == Scheme::TokenChannel).then_some(4);
                assert_eq!(flow.credits(), credits, "{scheme:?}");
                let setaside = match scheme {
                    Scheme::Ghs { setaside } | Scheme::Dhs { setaside } => Some(setaside > 0),
                    _ => None,
                };
                assert_eq!(flow.handshake().map(|h| h.setaside), setaside, "{scheme:?}");
            });
        }
    }

    #[test]
    fn token_slot_regenerates_only_with_uncommitted_space() {
        // Token regeneration: with buffer_cap 4 the home emits at most 4
        // concurrent commitments; an idle network just recycles them.
        let mut rig = Rig::new(SendMode::Forget);
        let mut d = DistributedArbiter::new();
        let mut f = SlotFlow::default();
        let mut m = NetworkMetrics::new();
        for now in 0..32u64 {
            let mut cx = rig.cx(now);
            d.step(&mut f, &mut cx, &mut m);
            assert!(
                d.tokens.count() <= 4,
                "cycle {now}: {} tokens exceed the 4 buffer commitments",
                d.tokens.count()
            );
        }
        // DHS has no such gate: one token per cycle until the ring is full
        // of them (a token lives segments = nodes/step = 4 cycles).
        let mut rig = Rig::new(SendMode::Forget);
        let mut d = DistributedArbiter::new();
        let mut f = HandshakeFlow::new(4, false);
        for now in 0..32u64 {
            let mut cx = rig.cx(now);
            d.step(&mut f, &mut cx, &mut m);
        }
        assert!(d.tokens.count() >= 3, "DHS keeps the ring saturated");
    }

    #[test]
    fn global_token_reimburses_credits_on_home_pass() {
        // Credit reimbursement: spend both credits, free them via
        // on_slot_freed, and watch them return only when the sweep wraps.
        let mut rig = Rig::new(SendMode::Forget);
        let mut g = GlobalArbiter::new();
        let mut f = CreditFlow::new(2);
        let mut m = NetworkMetrics::new();
        rig.enqueue(pkt(1, 2));
        rig.enqueue(pkt(2, 2));
        // Sweep until both packets are granted (credits hit 0).
        for now in 0..16u64 {
            let mut cx = rig.cx(now);
            g.step(&mut f, &mut cx, &mut m);
            let granted = rig.senders[2].granted();
            if granted > 0 {
                // Consume the grant so the holder releases the token.
                rig.senders[2].transmit(now);
                rig.refresh(2);
            }
        }
        assert_eq!(f.credits(), Some(0), "both credits spent");
        // The ejections free the slots; credits wait as `uncommitted`.
        f.on_slot_freed();
        f.on_slot_freed();
        assert_eq!(f.uncommitted(), 2);
        assert_eq!(f.credits(), Some(0), "reimbursement waits for home pass");
        // Let the token finish its loop: the wrap reimburses.
        for now in 16..32u64 {
            let mut cx = rig.cx(now);
            g.step(&mut f, &mut cx, &mut m);
        }
        assert_eq!(f.credits(), Some(2), "home pass reimbursed the credits");
        assert_eq!(f.uncommitted(), 0);
    }

    #[test]
    fn global_token_without_credits_never_blocks() {
        // GHS: the token carries nothing, so has_credit is always true.
        let f = HandshakeFlow::new(4, false);
        assert!(f.has_credit());
        let f = CreditFlow::new(0);
        assert!(!f.has_credit(), "an empty token channel must block");
    }

    #[test]
    fn idle_bulk_advance_matches_the_sweep_loop() {
        // Run two identical DHS arbiters, one with backlog (scan path) and
        // one without (bulk path) but where the scan also never grabs
        // (eligible() is false for empty queues): token streams must match.
        let mut rig_idle = Rig::new(SendMode::HoldHead);
        let mut rig_scan = Rig::new(SendMode::HoldHead);
        // Force the scan path with a deliberately stale plane bit: the probe
        // at distance 14 finds nothing sendable, so no token is grabbed.
        rig_scan.planes.sendable.set(14, true);
        let mut a_idle = DistributedArbiter::new();
        let mut a_scan = DistributedArbiter::new();
        let mut f_idle = HandshakeFlow::new(4, false);
        let mut f_scan = HandshakeFlow::new(4, false);
        let mut m = NetworkMetrics::new();
        for now in 0..40u64 {
            let mut cx = rig_idle.cx(now);
            a_idle.step(&mut f_idle, &mut cx, &mut m);
            let mut cx = rig_scan.cx(now);
            a_scan.step(&mut f_scan, &mut cx, &mut m);
            assert_eq!(a_idle.tokens, a_scan.tokens, "cycle {now}");
        }
    }

    #[test]
    fn ack_timer_arms_and_fires_as_a_timeout_retransmission() {
        // ACK-timer arming: transmit under recovery, never deliver the
        // handshake, and check the timer retransmits exactly once per
        // deadline with the timeout metric (not the NACK metric).
        let mut senders: Vec<OutQueue<PacketRef>> =
            (0..2).map(|_| OutQueue::new(SendMode::HoldHead)).collect();
        let dist_of = [usize::MAX, 0]; // node 1 sits at distance 0
        let mut planes = Planes::new(1);
        let mut queued = 1usize;
        let mut h = HandshakeFlow::new(4, false);
        let recovery = pnoc_faults::RecoveryConfig::for_ring(4);
        assert!(recovery.enabled);
        let mut m = NetworkMetrics::new();
        let mut arena = PacketArena::new();
        let handle = arena.alloc(pkt(7, 1));
        senders[1].push(PacketRef {
            id: 7,
            handle,
            sends: 0,
            class: 0,
        });
        senders[1].take_grant(0, FairnessPolicy::None);
        let sent = senders[1].transmit(0);
        assert!(sent.is_some());
        let deadline = recovery.timeout_for_attempt(1);
        h.ack_timers.push(std::cmp::Reverse((deadline, 1, 7)));
        for now in 0..=deadline {
            let fired_before = m.timeout_retransmissions;
            h.resolve_acks(
                now,
                0,
                &mut senders,
                &mut arena,
                &dist_of,
                &mut planes,
                &mut queued,
                None,
                &recovery,
                5,
                &mut m,
            );
            if now < deadline {
                assert_eq!(m.timeout_retransmissions, fired_before, "early fire");
            }
        }
        assert_eq!(m.timeout_retransmissions, 1, "timer fired exactly once");
        assert_eq!(m.retransmissions, 0, "timeout path, not NACK path");
        assert_eq!(queued, 1, "HoldHead: the packet is back awaiting resend");
    }

    #[test]
    fn duplicate_ids_are_tracked_in_order() {
        let mut h = HandshakeFlow::new(4, true);
        for id in [9u64, 3, 12] {
            h.accepted_ids.insert(id);
        }
        assert!(h.accepted_ids.contains(3));
        assert!(!h.accepted_ids.contains(4));
        let ids: Vec<u64> = h.accepted_ids.iter().collect();
        assert_eq!(ids, vec![3, 9, 12]);
    }
}
