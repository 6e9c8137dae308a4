//! One MWSR data channel: ring-segment state plus phase orchestration.
//!
//! A [`Channel`] owns the state physically attached to one destination
//! (home) node — the wave-pipelined data [`SlotRing`], the per-sender
//! [`OutQueue`]s, the home input buffer and its ejection pipeline — and
//! orchestrates the per-cycle phases over it. Everything scheme-specific
//! lives in the [`crate::schemes`] pipeline: arbitration (token state
//! machines) in [`crate::schemes::arbiter`], flow control (credit ledgers,
//! the ACK/NACK handshake, retransmit timers) in [`crate::schemes::flow`].
//! The channel is generic over that pairing — `Channel<A: Arbiter, F:
//! Flow>` — and is only ever built over the concrete pair
//! [`crate::with_scheme!`] binds for the configuration's scheme, so
//! [`crate::network::Network`] compiles one fully inlined step loop per
//! scheme family, and the bounded model checker
//! ([`crate::fsm::ChannelModel`]) and the tests run those same types.
//! [`Channel::step`] is the one way a channel advances a cycle — the
//! network, the model checker and the tests all call it — and it runs the
//! private phases in a fixed order:
//!
//! 1. `phase_advance`  — light moves one segment,
//! 2. `phase_arrival`  — the home inspects the slot at its segment
//!    (accept / drop+NACK / reinject),
//! 3. `phase_acks`     — handshakes scheduled `R + 1` cycles after each
//!    transmission reach their senders,
//! 4. `phase_transmit` — senders holding grants place flits on free slots,
//! 5. `phase_tokens`   — token emission, sweeping, grabbing, reimbursement,
//! 6. `phase_eject`    — the home drains its input buffer to local cores.
//!
//! A token granted in cycle *t* is used to transmit in *t + 1* (paper Figs.
//! 3 and 5: the token arrives one cycle before the data flit follows it).
//!
//! The per-cycle path is allocation-free and branch-light: ring positions
//! come from lookup tables precomputed at construction, and per-sender
//! predicates live in packed [`Planes`] bitmasks, so the transmit and token
//! phases scan words with `trailing_zeros` instead of probing every node.

use crate::calendar::Calendar;
use crate::config::{FairnessPolicy, NetworkConfig, Scheme};
use crate::metrics::NetworkMetrics;
use crate::outqueue::{OutQueue, SendMode};
use crate::packet::{FlitRef, Packet, PacketArena, PacketRef};
use crate::schemes::{AdmissionCtl, Arbiter, ArrivalCx, Flow, Planes, TokenCx};
use crate::slots::SlotRing;
use crate::topology::Topology;
use pnoc_faults::{ChannelInjector, DataFate, FaultEngine, RecoveryConfig};
use pnoc_obs::EventKind;
use pnoc_sim::Cycle;
use std::cmp::Reverse;
use std::collections::VecDeque;

/// A packet handed to the home node's local cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The delivered packet.
    pub pkt: Packet,
    /// Cycle at which the local core sees it (ejection router pipeline
    /// included).
    pub available_at: Cycle,
}

/// One MWSR channel (see module docs).
///
/// The type parameters are the scheme's (arbiter, flow) pairing, chosen at
/// compile time by [`crate::with_scheme!`].
///
/// `Clone` so the bounded model checker ([`crate::fsm`]) can branch a
/// channel's state when exploring nondeterministic injection choices.
#[derive(Debug, Clone)]
#[allow(clippy::struct_excessive_bools)] // construction-time scheme predicates, not a state machine
pub struct Channel<A, F> {
    home: usize,
    topo: Topology,
    scheme: Scheme,
    fairness: FairnessPolicy,
    buffer_cap: usize,
    ejection_per_cycle: usize,
    eject_latency: u64,

    // --- precomputed ring lookups (hot loop: no div/mod per access) ---
    /// The home's ring segment.
    home_seg: usize,
    /// Nodes a token passes per cycle.
    sweep_step: usize,
    /// Fixed handshake delay (`segments + 1`).
    handshake_delay: Cycle,
    /// Downstream distance → node id (`nodes - 1` entries).
    by_distance: Vec<usize>,
    /// Node id → downstream distance from home (`usize::MAX` at the home).
    dist_of: Vec<usize>,
    /// Node id → ring segment.
    seg_of: Vec<usize>,
    /// Whether a transmission removes the packet from its queue (`Forget`
    /// and `Setaside` modes; `HoldHead` keeps it queued until the ACK).
    dec_on_transmit: bool,
    /// Whether transmissions arm sender-side ACK timers (recovery on a
    /// handshake scheme).
    arm_timers: bool,
    /// Whether a flit on the ring *owns* its arena slot (`Forget` mode:
    /// the sender forgot it at transmission). Handshake modes put an
    /// aliased handle on the ring — the sender retains ownership until the
    /// handshake resolves — so arrival-side fates must not free it.
    ring_owns_flits: bool,

    /// Packet payload arena: queues and ring slots move `u32` handles; the
    /// 72-byte payload is written once at injection and read back at
    /// delivery (or freed at its fault/abandon fate).
    arena: PacketArena,
    /// Per-sender output queues, indexed by node id (`senders[home]` unused).
    senders: Vec<OutQueue<PacketRef>>,
    /// The wave-pipelined data ring (arena handles).
    data: SlotRing<FlitRef>,
    /// The home input buffer (≤ `buffer_cap` entries including draining).
    input_queue: VecDeque<Packet>,
    /// Buffer slots still held by flits traversing the ejection router
    /// (a slot is freed only when its flit *leaves* the node, the same rule
    /// credit-based flow control uses for credit return).
    draining: u32,
    /// Slot-release events for draining flits.
    releases: Calendar<()>,
    /// Arbitration state machine (resolved at construction).
    arbiter: A,
    /// Flow-control state (resolved at construction).
    flow: F,

    /// Total queued packets across senders (cheap idle check).
    queued_total: usize,
    /// Per-sender predicate bit-planes, indexed by downstream distance —
    /// refreshed after every queue mutation so phase loops scan packed
    /// words instead of probing every node.
    planes: Planes,
    /// DHS-circulation: a reinjection this cycle suppresses token emission.
    suppress_token: bool,
    /// Per-class admission buckets (`None` when `QoS` is off).
    admission: Option<AdmissionCtl>,
    /// Measured deliveries per sender (fairness accounting).
    pub served_by_sender: Vec<u64>,

    /// Fault injection for this channel (`None` on fault-free runs — every
    /// fault hook below is skipped entirely).
    injector: Option<ChannelInjector>,
    /// Sender-side ACK-timeout retransmission parameters.
    recovery: RecoveryConfig,
    /// Checker self-test switch ([`Channel::disable_duplicate_suppression`]).
    dup_suppression_disabled: bool,
}

impl<A: Arbiter, F: Flow> Channel<A, F> {
    /// Build the channel homed at `home` over a concrete (arbiter, flow)
    /// pairing. Crate-private: callers pass the pair [`crate::with_scheme!`]
    /// binds for `cfg`, so the pairing always matches `cfg.scheme`.
    pub(crate) fn with_pipeline(home: usize, cfg: &NetworkConfig, arbiter: A, flow: F) -> Self {
        let topo = Topology::new(cfg.nodes, cfg.ring_segments);
        let mode = match cfg.scheme {
            Scheme::TokenChannel | Scheme::TokenSlot | Scheme::DhsCirculation => SendMode::Forget,
            Scheme::Ghs { setaside } | Scheme::Dhs { setaside } => {
                if setaside == 0 {
                    SendMode::HoldHead
                } else {
                    SendMode::Setaside(setaside)
                }
            }
        };
        // Each channel forks its own injector stream; forking from a fresh
        // engine per channel is deterministic in (seed, home).
        let injector = if cfg.faults.enabled() {
            Some(FaultEngine::new(cfg.faults, cfg.seed).channel(home))
        } else {
            None
        };
        let mut by_distance = vec![0usize; cfg.nodes - 1];
        let mut dist_of = vec![usize::MAX; cfg.nodes];
        for (d, slot) in by_distance.iter_mut().enumerate() {
            let node = topo.node_at_distance(home, d);
            *slot = node;
            dist_of[node] = d;
        }
        let seg_of = (0..cfg.nodes).map(|n| topo.segment_of(n)).collect();
        Self {
            home,
            topo,
            scheme: cfg.scheme,
            fairness: cfg.fairness,
            buffer_cap: cfg.input_buffer,
            ejection_per_cycle: cfg.ejection_per_cycle,
            eject_latency: cfg.router_latency,
            home_seg: topo.segment_of(home),
            sweep_step: topo.step(),
            handshake_delay: topo.handshake_delay(),
            by_distance,
            dist_of,
            seg_of,
            dec_on_transmit: !matches!(mode, SendMode::HoldHead),
            arm_timers: cfg.recovery.enabled && cfg.scheme.uses_handshake(),
            ring_owns_flits: matches!(mode, SendMode::Forget),
            arena: PacketArena::new(),
            senders: (0..cfg.nodes).map(|_| OutQueue::new(mode)).collect(),
            data: SlotRing::new(cfg.ring_segments),
            input_queue: VecDeque::with_capacity(cfg.input_buffer),
            draining: 0,
            releases: Calendar::new(cfg.router_latency as usize + 2),
            arbiter,
            flow,
            queued_total: 0,
            planes: if cfg.admission.enabled() {
                Planes::with_classes(cfg.nodes - 1)
            } else {
                Planes::new(cfg.nodes - 1)
            },
            suppress_token: false,
            admission: AdmissionCtl::from_policy(&cfg.admission),
            served_by_sender: vec![0; cfg.nodes],
            injector,
            recovery: cfg.recovery,
            dup_suppression_disabled: false,
        }
    }

    /// The home node id.
    pub fn home(&self) -> usize {
        self.home
    }

    /// Enqueue a packet into its sender's output queue (called when the
    /// packet exits the injection router pipeline).
    pub fn enqueue(&mut self, pkt: Packet) {
        debug_assert_eq!(pkt.dst_node as usize, self.home);
        debug_assert_ne!(pkt.src_node as usize, self.home, "no self-send");
        let src = pkt.src_node as usize;
        let id = pkt.id;
        let class = pkt.class;
        let handle = self.arena.alloc(pkt);
        self.senders[src].push(PacketRef {
            id,
            handle,
            sends: 0,
            class,
        });
        self.queued_total += 1;
        self.planes.refresh(self.dist_of[src], &self.senders[src]);
    }

    /// Whether every queue, slot, buffer and grant is empty (drain check).
    pub fn is_drained(&self) -> bool {
        self.queued_total == 0
            && self.arena.live() == 0
            && self.data.is_empty()
            && self.input_queue.is_empty()
            && self.draining == 0
            && self.flow.pending_acks() == 0
            && !self.planes.granted.any()
            && self.senders.iter().all(OutQueue::is_idle)
    }

    /// Home input-buffer occupancy, including slots held by flits still in
    /// the ejection router (for tests/inspection).
    pub fn buffer_occupancy(&self) -> usize {
        self.input_queue.len() + self.draining as usize
    }

    /// Snapshot the channel's queue state for the occupancy time-series
    /// (read-only).
    pub fn occupancy_sample(&self, now: Cycle) -> pnoc_obs::ChannelSample {
        pnoc_obs::ChannelSample::new(
            now,
            self.home,
            self.buffer_occupancy(),
            self.queued_total,
            self.senders.iter().map(OutQueue::setaside_len).sum(),
            self.flow.credits().unwrap_or(0),
            self.arbiter.outstanding_tokens(),
        )
    }

    /// Chaos/test hook: throttle the home's ejection bandwidth to force
    /// buffer pressure (drops, retransmissions, circulation). The normal
    /// configuration path validates `ejection_per_cycle ≥ 1`; this setter
    /// deliberately allows 0 to model a stalled ejection port.
    pub fn set_ejection_per_cycle(&mut self, n: usize) {
        self.ejection_per_cycle = n;
    }

    /// Checker self-test hook: the home stops suppressing retransmissions
    /// of packets it already accepted, so a lost ACK delivers one twice —
    /// the bug the model checker, oracle and auditor must each report.
    pub fn disable_duplicate_suppression(&mut self) {
        self.dup_suppression_disabled = true;
    }

    /// Advance the channel one cycle: the six phases in the fixed order of
    /// the module docs, appending this cycle's deliveries to `deliveries`.
    #[inline]
    pub fn step(&mut self, now: Cycle, m: &mut NetworkMetrics, deliveries: &mut Vec<Delivery>) {
        self.phase_advance();
        self.phase_arrival(now, m);
        self.phase_acks(now, m);
        self.phase_transmit(now, m);
        self.phase_tokens(now, m);
        self.phase_eject(now, m, deliveries);
    }

    /// Phase 1: light advances one segment.
    fn phase_advance(&mut self) {
        self.data.advance();
    }

    /// Phase 2: the home inspects the slot at its segment.
    fn phase_arrival(&mut self, now: Cycle, m: &mut NetworkMetrics) {
        // Take the flit once; the circulation path puts it back. (Take-once
        // keeps this per-cycle path free of unwrap/expect — determinism lint
        // `no-hot-path-unwrap`.)
        let Some(flit) = self.data.take(self.home_seg) else {
            return;
        };
        // Everything up to the accept decision reads only the flit snapshot,
        // never the arena: under ACK loss a duplicate flit can arrive after
        // the sender's (re-)ACK already freed the slot, and such a stale flit
        // is guaranteed to exit through one of the early returns below (its
        // id is in `accepted_ids` — see [`FlitRef`]). The accept path, which
        // stale flits never reach, is the single arena dereference.
        //
        // Fault fate for the flit's whole flight, decided at the observation
        // point (one draw per arrival, compounded over the flight length).
        if let Some(inj) = self.injector.as_mut() {
            if inj.active() {
                let flight = now.saturating_sub(flit.sent_at).max(1);
                match inj.data_fate(flight) {
                    DataFate::Intact => {}
                    fate @ DataFate::Lost => {
                        // Destroyed in flight: the home never sees it, so no
                        // handshake fires and no buffer slot is touched. A
                        // Forget-mode flit was the payload's last owner.
                        if self.ring_owns_flits {
                            self.arena.free(flit.handle);
                        }
                        m.faults_data_lost += 1;
                        m.trace(
                            now,
                            self.home,
                            flit.src as usize,
                            flit.id,
                            fate.trace_kind(),
                        );
                        self.flow.on_data_lost(m);
                        return;
                    }
                    fate @ DataFate::Corrupt => {
                        // Discarded at the home (handshake schemes NACK it;
                        // the sender's copy stays for the retransmission).
                        if self.ring_owns_flits {
                            self.arena.free(flit.handle);
                        }
                        m.arrivals += 1;
                        m.faults_data_corrupt += 1;
                        m.trace(
                            now,
                            self.home,
                            flit.src as usize,
                            flit.id,
                            fate.trace_kind(),
                        );
                        self.flow.on_data_corrupt(&flit, self.handshake_delay);
                        return;
                    }
                }
            }
        }
        m.arrivals += 1;
        m.trace(
            now,
            self.home,
            flit.src as usize,
            flit.id,
            EventKind::Arrival,
        );
        // Duplicate suppression (recovery only): a retransmission whose
        // original was accepted but whose ACK was lost must not be delivered
        // twice. Discard it and re-ACK so the sender can release its copy.
        //
        // `dup_suppression_disabled` is the checkers' self-test switch,
        // read only here (handshake arrivals with recovery armed).
        if self.recovery.enabled {
            if let Some(h) = self.flow.handshake_mut() {
                if !self.dup_suppression_disabled && h.accepted_ids.contains(flit.id) {
                    m.duplicates_suppressed += 1;
                    m.trace(
                        now,
                        self.home,
                        flit.src as usize,
                        flit.id,
                        EventKind::DuplicateSuppressed,
                    );
                    h.acks.schedule(
                        flit.sent_at + self.handshake_delay,
                        crate::schemes::AckEvent {
                            sender: flit.src as usize,
                            id: flit.id,
                            ok: true,
                        },
                    );
                    return;
                }
            }
        }
        // Accept path: the slot is live (not stale, and handshake senders
        // retain their copy until ACK/abandon). The transmission stamps come
        // from the flit, not the arena — a handshake retransmission restamps
        // the shared payload while an older flit is still in flight, and the
        // delivered copy must carry the stamps of the send that produced it.
        let mut pkt = *self.arena.get(flit.handle);
        pkt.sent_at = flit.sent_at;
        pkt.sends = flit.sends;
        let has_room = self.input_queue.len() + (self.draining as usize) < self.buffer_cap;
        let mut cx = ArrivalCx {
            now,
            home: self.home,
            home_seg: self.home_seg,
            handshake_delay: self.handshake_delay,
            recovery_enabled: self.recovery.enabled,
            has_room,
            handle: flit.handle,
            arena: &mut self.arena,
            input_queue: &mut self.input_queue,
            data: &mut self.data,
            suppress_token: &mut self.suppress_token,
        };
        self.flow.accept(pkt, &mut cx, m);
    }

    /// Phase 3: handshakes reach their senders, and expired ACK timers fire.
    /// A statically-folded no-op for schemes without a handshake channel.
    fn phase_acks(&mut self, now: Cycle, m: &mut NetworkMetrics) {
        self.flow.resolve_acks(
            now,
            self.home,
            &mut self.senders,
            &mut self.arena,
            &self.dist_of,
            &mut self.planes,
            &mut self.queued_total,
            self.injector.as_mut(),
            &self.recovery,
            self.handshake_delay,
            m,
        );
    }

    /// Phase 4: senders with grants place flits on free slots at their
    /// segments (one per sender per cycle). The granted bit-plane *is* the
    /// active-sender list, pre-sorted by downstream distance — the loop is
    /// a word scan, with no per-cycle sort and no compaction.
    fn phase_transmit(&mut self, now: Cycle, m: &mut NetworkMetrics) {
        if !self.planes.granted.any() {
            return;
        }
        // Deterministic service order: ascending downstream distance from
        // home (bit index order). Transmitting at distance `d` only mutates
        // that sender's own predicate bits, so rescanning from `d + 1` sees
        // exactly the grant set that existed at phase entry.
        let len = self.by_distance.len();
        let mut next = self.planes.granted.first_in(0, len);
        while let Some(d) = next {
            let node = self.by_distance[d];
            let seg = self.seg_of[node];
            if self.data.is_free(seg) {
                if let Some(sent) = self.senders[node].transmit(now) {
                    // Sync the arena payload with this transmission; the
                    // ring slot carries the handle plus the home-side
                    // snapshot (see [`FlitRef`]).
                    let pkt = self.arena.get_mut(sent.handle);
                    pkt.sent_at = now;
                    pkt.sends = sent.sends;
                    let src_node = pkt.src_node;
                    if sent.sends == 1 && pkt.measured {
                        m.queue_wait.record((now - pkt.enqueued_at) as f64);
                    }
                    m.sends += 1;
                    m.trace(
                        now,
                        self.home,
                        node,
                        sent.id,
                        if sent.sends > 1 {
                            EventKind::Retransmit
                        } else {
                            EventKind::Send
                        },
                    );
                    if self.dec_on_transmit {
                        // The packet left the queue (Forget or Setaside).
                        self.queued_total -= 1;
                    }
                    if self.arm_timers {
                        // Arm the ACK timer for this attempt. The base
                        // timeout exceeds the handshake round trip, so on a
                        // healthy channel the ACK always wins the race and
                        // the timer goes stale.
                        if let Some(h) = self.flow.handshake_mut() {
                            let deadline = now + self.recovery.timeout_for_attempt(sent.sends);
                            h.ack_timers.push(Reverse((deadline, node, sent.id)));
                        }
                    }
                    self.data.put(
                        seg,
                        FlitRef {
                            id: sent.id,
                            handle: sent.handle,
                            sends: sent.sends,
                            src: src_node,
                            sent_at: now,
                        },
                    );
                    self.planes.refresh(d, &self.senders[node]);
                }
            }
            next = self.planes.granted.first_in(d + 1, len);
        }
    }

    /// Phase 5: token emission, sweeping, grabbing, reimbursement — all
    /// delegated to the arbiter/flow pairing resolved at construction.
    fn phase_tokens(&mut self, now: Cycle, m: &mut NetworkMetrics) {
        if let Some(ctl) = self.admission.as_mut() {
            ctl.tick(now);
        }
        let mut cx = TokenCx {
            now,
            home: self.home,
            fairness: self.fairness,
            nodes: self.topo.nodes,
            step: self.sweep_step,
            watchdog: 2 * self.handshake_delay,
            by_distance: &self.by_distance,
            dist_of: &self.dist_of,
            senders: &mut self.senders,
            planes: &mut self.planes,
            buffered: self.input_queue.len() + self.draining as usize,
            buffer_cap: self.buffer_cap,
            suppress_token: &mut self.suppress_token,
            admission: self.admission.as_mut(),
            injector: self.injector.as_mut(),
        };
        self.arbiter.step(&mut self.flow, &mut cx, m);
    }

    /// Phase 6: the home drains its input buffer toward the local cores.
    fn phase_eject(&mut self, now: Cycle, m: &mut NetworkMetrics, deliveries: &mut Vec<Delivery>) {
        // Flits leaving the ejection router release their buffer slots; only
        // now does a freed slot become a reimbursable credit.
        if self.releases.is_empty() {
            self.releases.fast_forward(now);
        } else {
            for () in self.releases.drain(now) {
                assert!(self.draining > 0, "draining underflow");
                self.draining -= 1;
                self.flow.on_slot_freed();
            }
        }
        // Fault: transient drain stall — the receiving core stops accepting.
        // Flits already inside the ejection router (above) still complete;
        // no new ejection starts this cycle.
        if let Some(inj) = self.injector.as_mut() {
            if inj.eject_stalled(now) {
                m.stall_cycles += 1;
                m.trace(
                    now,
                    self.home,
                    self.home,
                    pnoc_obs::NO_PACKET,
                    EventKind::EjectStall,
                );
                return;
            }
        }
        for _ in 0..self.ejection_per_cycle {
            let Some(pkt) = self.input_queue.pop_front() else {
                break;
            };
            let available_at = now + self.eject_latency;
            if self.eject_latency == 0 {
                // Zero-latency ejection frees the slot immediately.
                self.flow.on_slot_freed();
            } else {
                self.draining += 1;
                self.releases.schedule(available_at, ());
            }
            m.trace(
                now,
                self.home,
                pkt.src_node as usize,
                pkt.id,
                EventKind::Eject,
            );
            if pkt.measured {
                self.served_by_sender[pkt.src_node as usize] += 1;
            }
            m.record_delivery(pkt, available_at, deliveries);
        }
    }

    /// Check the channel's internal invariants (buffer bounds, queue
    /// accounting, reservation conservation, bit-plane exactness),
    /// reporting the first violation instead of panicking. The runtime
    /// invariant auditor ([`crate::Network::attach_auditor`]) and the
    /// bounded model checker route through this so a violation becomes a
    /// diagnosable trace rather than an abort.
    pub fn try_check_invariants(&self) -> Result<(), String> {
        if self.input_queue.len() + self.draining as usize > self.buffer_cap {
            return Err(format!(
                "buffer overflow: {} queued + {} draining > cap {}",
                self.input_queue.len(),
                self.draining,
                self.buffer_cap
            ));
        }
        let queued: usize = self.senders.iter().map(OutQueue::backlog).sum();
        if queued != self.queued_total {
            return Err(format!(
                "queued_total drifted: counted {queued}, cached {}",
                self.queued_total
            ));
        }
        // Packet-payload conservation: every live arena slot is owned by
        // exactly one queue entry, setaside entry, or (Forget mode)
        // in-flight ring slot. Handshake flits on the ring alias their
        // sender's retained copy and must not be counted twice.
        let setaside_total: usize = self.senders.iter().map(OutQueue::setaside_len).sum();
        let ring_owned = if self.ring_owns_flits {
            self.data.occupied()
        } else {
            0
        };
        let expected_live = self.queued_total + setaside_total + ring_owned;
        if self.arena.live() != expected_live {
            return Err(format!(
                "arena leak: {} live payloads, {} owners \
                 ({} queued + {} setaside + {} ring-owned)",
                self.arena.live(),
                expected_live,
                self.queued_total,
                setaside_total,
                ring_owned
            ));
        }
        if matches!(self.scheme, Scheme::TokenSlot) {
            let committed = self.input_queue.len()
                + self.draining as usize
                + self.flow.inflight() as usize
                + self.flow.lost_reservations() as usize
                + self.arbiter.outstanding_tokens();
            if committed > self.buffer_cap {
                return Err(format!(
                    "token-slot reservation accounting violated: \
                     {committed} committed > cap {}",
                    self.buffer_cap
                ));
            }
        }
        // Every bit-plane must equal its scalar predicate exactly — the
        // phase loops trust the planes without re-probing the queues.
        for (d, &n) in self.by_distance.iter().enumerate() {
            let q = &self.senders[n];
            let checks = [
                ("sendable", self.planes.sendable.get(d), q.sendable() > 0),
                ("granted", self.planes.granted.get(d), q.granted() > 0),
                ("backlogged", self.planes.backlogged.get(d), q.backlog() > 0),
                (
                    "unresolved",
                    self.planes.unresolved.get(d),
                    q.unresolved_len() > 0,
                ),
            ];
            for (plane, got, want) in checks {
                if got != want {
                    return Err(format!(
                        "{plane} plane drifted at distance {d} (node {n}): \
                         plane {got}, queue {want}"
                    ));
                }
            }
            // Per-class views (admission only): head-class predicates must
            // partition the parent plane, and backlog bits must match the
            // queue's class mask.
            if let Some(cp) = self.planes.classes.as_deref() {
                let head = q.head_class();
                let mask = q.class_backlog_mask();
                for c in 0..pnoc_traffic::MAX_CLASSES {
                    let is_head = head == Some(u8::try_from(c).unwrap_or(u8::MAX));
                    let class_checks = [
                        (
                            "class-sendable",
                            cp.sendable[c].get(d),
                            q.sendable() > 0 && is_head,
                        ),
                        (
                            "class-granted",
                            cp.granted[c].get(d),
                            q.granted() > 0 && is_head,
                        ),
                        (
                            "class-backlogged",
                            cp.backlogged[c].get(d),
                            mask & (1 << c) != 0,
                        ),
                    ];
                    for (plane, got, want) in class_checks {
                        if got != want {
                            return Err(format!(
                                "{plane} plane drifted at distance {d} (node {n}) \
                                 class {c}: plane {got}, queue {want}"
                            ));
                        }
                    }
                }
            }
        }
        // Admission buckets can never exceed their burst capacity.
        if let Some(ctl) = &self.admission {
            let (tokens, burst) = (ctl.tokens(), ctl.burst());
            for c in 0..pnoc_traffic::MAX_CLASSES {
                if tokens[c] > burst[c] {
                    return Err(format!(
                        "admission bucket overflow for class {c}: \
                         {} tokens > burst {}",
                        tokens[c], burst[c]
                    ));
                }
            }
        }
        Ok(())
    }

    /// Assert the channel's internal invariants. Tests call this after every
    /// cycle; it is cheap enough to use while debugging scheme changes.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    pub fn check_invariants(&self) {
        if let Err(why) = self.try_check_invariants() {
            panic!("channel {} invariant violated: {why}", self.home);
        }
    }

    /// Snapshot the observable state the [`crate::audit::InvariantAuditor`]
    /// needs for its cross-field conservation checks, reusing `out`'s
    /// allocations (the auditor calls this every sampled cycle).
    pub(crate) fn audit_view_into(&self, out: &mut crate::audit::ChannelAuditView) {
        out.home = self.home;
        out.scheme = self.scheme;
        out.buffer_cap = self.buffer_cap;
        out.input_queue_ids.clear();
        out.input_queue_ids
            .extend(self.input_queue.iter().map(|p| p.id));
        out.draining = self.draining;
        out.ring_ids.clear();
        out.ring_ids
            .extend(self.data.iter_occupied().map(|(_, &f)| f.id));
        out.queue_ids.clear();
        out.setaside_ids.clear();
        out.unresolved_ids.clear();
        let mut granted_total = 0u32;
        for q in &self.senders {
            out.queue_ids.extend(q.iter_queue().map(|p| p.id));
            out.setaside_ids.extend(q.iter_setaside().map(|p| p.id));
            out.unresolved_ids.extend(q.unresolved_ids());
            granted_total += q.granted();
        }
        out.granted_total = granted_total;
        out.pending_acks.clear();
        out.armed_timer_ids.clear();
        if let Some(h) = self.flow.handshake() {
            out.pending_acks
                .extend(h.acks.pending_iter().map(|(_, ev)| (ev.id, ev.ok)));
            out.armed_timer_ids
                .extend(h.ack_timers.iter().map(|&Reverse((_, _, id))| id));
        }
        out.credits = self.flow.credits();
        out.outstanding_tokens = self.arbiter.outstanding_tokens();
        out.uncommitted = self.flow.uncommitted();
        out.inflight = self.flow.inflight();
        out.lost_reservations = self.flow.lost_reservations();
        out.leaked_credits = self.flow.leaked_credits();
        out.recovery_enabled = self.recovery.enabled;
        out.faults_active = self.injector.as_ref().is_some_and(ChannelInjector::active);
        out.admission_enabled = self.admission.is_some();
        out.class_backlog = [0; pnoc_traffic::MAX_CLASSES];
        if let Some(ctl) = &self.admission {
            out.admission_period = ctl.period();
            out.class_granted = ctl.granted_by_class;
            for q in &self.senders {
                let mask = q.class_backlog_mask();
                for c in 0..pnoc_traffic::MAX_CLASSES {
                    if mask & (1 << c) != 0 {
                        out.class_backlog[c] +=
                            q.iter_queue().filter(|p| usize::from(p.class) == c).count();
                    }
                }
            }
        } else {
            out.admission_period = 0;
            out.class_granted = [0; pnoc_traffic::MAX_CLASSES];
        }
    }

    /// Append a canonical encoding of the channel's complete dynamic state
    /// to `out`, with every absolute cycle re-based against `now` so two
    /// states that differ only by a time shift produce identical keys. The
    /// bounded model checker ([`crate::fsm`]) dedupes its search on this.
    ///
    /// Excluded on purpose: static configuration (scheme, topology,
    /// recovery parameters) and metrics-only packet fields (`generated_at`,
    /// `enqueued_at`, `measured`, `tag`) — they never influence a future
    /// transition.
    pub fn state_key(&self, now: Cycle, out: &mut Vec<u64>) {
        // Field separator: no id/count collides with it in small-config
        // model-checking runs.
        const SEP: u64 = u64::MAX;
        for q in &self.senders {
            out.push(SEP);
            for p in q.iter_queue() {
                out.push(p.id);
                out.push(u64::from(p.sends));
            }
            out.push(SEP - 1);
            out.push(u64::from(q.head_is_pending()));
            for p in q.iter_setaside() {
                out.push(p.id);
                out.push(u64::from(p.sends));
            }
            out.push(SEP - 1);
            out.push(u64::from(q.granted()));
            let (serves, sit_until) = q.fairness_state();
            out.push(u64::from(serves));
            out.push(sit_until.saturating_sub(now));
        }
        out.push(SEP);
        for (seg, &f) in self.data.iter_occupied() {
            out.push(seg as u64);
            out.push(f.id);
            out.push(u64::from(f.sends));
            // `sent_at` schedules the handshake (`sent_at + R + 1`), so its
            // age relative to `now` is behaviorally relevant.
            out.push(now.saturating_sub(f.sent_at));
        }
        out.push(SEP);
        for p in &self.input_queue {
            out.push(p.id);
        }
        out.push(SEP);
        out.push(u64::from(self.draining));
        for (at, ()) in self.releases.pending_iter() {
            out.push(at - now);
        }
        out.push(SEP);
        if let Some(h) = self.flow.handshake() {
            for (at, ev) in h.acks.pending_iter() {
                out.push(at - now);
                out.push(ev.sender as u64);
                out.push(ev.id);
                out.push(u64::from(ev.ok));
            }
        }
        out.push(SEP);
        self.arbiter
            .state_key_into(now, self.flow.credits().map_or(SEP, u64::from), out);
        out.push(SEP);
        // The granted plane iterates by distance; encode the node ids in
        // canonical (sorted) order by sorting the appended suffix in place
        // — no scratch vector.
        let start = out.len();
        out.extend(
            self.planes
                .granted
                .iter()
                .map(|d| self.by_distance[d] as u64),
        );
        out[start..].sort_unstable();
        out.push(SEP);
        out.push(u64::from(self.flow.uncommitted()));
        out.push(u64::from(self.flow.inflight()));
        out.push(u64::from(self.suppress_token));
        out.push(u64::from(self.flow.lost_reservations()));
        out.push(u64::from(self.flow.leaked_credits()));
        out.push(SEP);
        if let Some(h) = self.flow.handshake() {
            let mut timers: Vec<(u64, u64, u64)> = h
                .ack_timers
                .iter()
                .map(|&Reverse((deadline, sender, id))| {
                    (deadline.saturating_sub(now), sender as u64, id)
                })
                .collect();
            timers.sort_unstable();
            for (d, s, id) in timers {
                out.push(d);
                out.push(s);
                out.push(id);
            }
        }
        out.push(SEP);
        if let Some(h) = self.flow.handshake() {
            out.extend(h.accepted_ids.iter());
        }
        out.push(SEP);
        if let Some(ctl) = &self.admission {
            // Bucket levels plus the phase within the refill period: two
            // states with the same levels but different distances to the
            // next refill behave differently.
            out.push(now % u64::from(ctl.period()));
            for t in ctl.tokens() {
                out.push(u64::from(t));
            }
        }
        out.push(SEP);
        if let Some(inj) = &self.injector {
            inj.state_key(now, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;

    /// Build the channel homed at `home` over the pairing `cfg`'s scheme
    /// selects and run `body` with it bound to `ch` — compiled once per
    /// pairing, through [`crate::with_scheme!`].
    macro_rules! with_channel {
        ($home:expr, $cfg:expr, |$ch:ident| $body:expr) => {{
            let cfg: &NetworkConfig = $cfg;
            crate::with_scheme!(cfg, |arbiter, flow| {
                let mut $ch = Channel::with_pipeline($home, cfg, arbiter, flow);
                $body
            })
        }};
    }

    fn cfg(scheme: Scheme) -> NetworkConfig {
        NetworkConfig::small(scheme) // 16 nodes, 4 segments, buffer 4
    }

    fn pkt(id: u64, src: usize, dst: usize, now: Cycle) -> Packet {
        Packet {
            id,
            src_core: (src * 2) as u32,
            src_node: src as u32,
            dst_node: dst as u32,
            kind: PacketKind::Data,
            generated_at: now,
            enqueued_at: now,
            sent_at: 0,
            sends: 0,
            measured: true,
            tag: 0,
            class: 0,
        }
    }

    /// Run `cycles` cycles of a single channel in isolation.
    fn run<A: Arbiter, F: Flow>(
        ch: &mut Channel<A, F>,
        m: &mut NetworkMetrics,
        deliveries: &mut Vec<Delivery>,
        from: Cycle,
        cycles: u64,
    ) {
        for now in from..from + cycles {
            ch.step(now, m, deliveries);
            ch.check_invariants();
        }
    }

    fn deliver_one(scheme: Scheme, src: usize) -> (Vec<Delivery>, NetworkMetrics) {
        with_channel!(0, &cfg(scheme), |ch| {
            let mut m = NetworkMetrics::new();
            let mut d = Vec::new();
            ch.enqueue(pkt(1, src, 0, 0));
            run(&mut ch, &mut m, &mut d, 0, 64);
            (d, m)
        })
    }

    #[test]
    fn every_scheme_delivers_a_single_packet() {
        for scheme in Scheme::paper_set(2) {
            let (d, m) = deliver_one(scheme, 9);
            assert_eq!(d.len(), 1, "{scheme:?} failed to deliver");
            assert_eq!(d[0].pkt.id, 1);
            assert_eq!(m.delivered_measured, 1);
            assert_eq!(m.drops, 0);
        }
    }

    #[test]
    fn ring_latency_is_distance_independent_at_zero_load() {
        // In a token ring, token-wait + data-flight ≈ one full loop no matter
        // where the sender sits: a sender near the home waits longer for the
        // token but its data arrives quickly, and vice versa. Check the two
        // extremes agree to within a couple of cycles and land near the
        // round-trip time.
        let (d_near, _) = deliver_one(Scheme::Dhs { setaside: 2 }, 15); // 1 hop upstream of home
        let (d_far, _) = deliver_one(Scheme::Dhs { setaside: 2 }, 1); // almost a full loop
        let lat_near = i64::try_from(d_near[0].pkt.latency_at(d_near[0].available_at)).unwrap();
        let lat_far = i64::try_from(d_far[0].pkt.latency_at(d_far[0].available_at)).unwrap();
        assert!(
            (lat_far - lat_near).abs() <= 2,
            "ring latency should be ~flat ({lat_far} vs {lat_near})"
        );
        // 4-segment ring + 2-cycle eject router: zero-load latency ≈ 6–9.
        assert!((4..=10).contains(&lat_near), "zero-load latency {lat_near}");
    }

    #[test]
    fn channel_drains_after_burst() {
        for scheme in Scheme::paper_set(2) {
            with_channel!(3, &cfg(scheme), |ch| {
                let mut m = NetworkMetrics::new();
                let mut d = Vec::new();
                let mut id = 0;
                for src in [0usize, 5, 9, 12] {
                    for _ in 0..5 {
                        id += 1;
                        ch.enqueue(pkt(id, src, 3, 0));
                    }
                }
                run(&mut ch, &mut m, &mut d, 0, 600);
                assert_eq!(d.len(), 20, "{scheme:?} lost packets: {}", d.len());
                assert!(ch.is_drained(), "{scheme:?} did not drain");
            });
        }
    }

    #[test]
    fn deliveries_preserve_per_sender_order() {
        for scheme in Scheme::paper_set(2) {
            let d = with_channel!(0, &cfg(scheme), |ch| {
                let mut m = NetworkMetrics::new();
                let mut d = Vec::new();
                for i in 0..8 {
                    ch.enqueue(pkt(i, 5, 0, 0));
                }
                run(&mut ch, &mut m, &mut d, 0, 400);
                d
            });
            let ids: Vec<u64> = d.iter().map(|x| x.pkt.id).collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            assert_eq!(ids, sorted, "{scheme:?} reordered a sender's packets");
        }
    }

    /// Run with the home's ejection stalled except every `period`-th cycle,
    /// which builds real buffer pressure (drops / circulation).
    fn run_with_slow_ejection<A: Arbiter, F: Flow>(
        ch: &mut Channel<A, F>,
        m: &mut NetworkMetrics,
        d: &mut Vec<Delivery>,
        cycles: u64,
        period: u64,
    ) {
        for now in 0..cycles {
            ch.set_ejection_per_cycle(usize::from(now % period == 0));
            ch.step(now, m, d);
            ch.check_invariants();
        }
    }

    #[test]
    fn handshake_drops_trigger_retransmission_not_loss() {
        // A small buffer plus a slow home port forces drops.
        let mut config = cfg(Scheme::Dhs { setaside: 2 });
        config.input_buffer = 2;
        with_channel!(0, &config, |ch| {
            let mut m = NetworkMetrics::new();
            let mut d = Vec::new();
            for i in 0..12 {
                ch.enqueue(pkt(i, 4, 0, 0));
                ch.enqueue(pkt(100 + i, 9, 0, 0));
            }
            run_with_slow_ejection(&mut ch, &mut m, &mut d, 2000, 4);
            assert_eq!(d.len(), 24, "all packets eventually delivered");
            assert!(ch.is_drained());
            assert!(m.drops > 0, "slow ejection must force drops");
            assert_eq!(m.drops, m.retransmissions, "every drop is retransmitted");
        });
    }

    #[test]
    fn circulation_never_drops_and_counts_loops() {
        let mut config = cfg(Scheme::DhsCirculation);
        config.input_buffer = 2;
        with_channel!(0, &config, |ch| {
            let mut m = NetworkMetrics::new();
            let mut d = Vec::new();
            for i in 0..12 {
                ch.enqueue(pkt(i, 4, 0, 0));
                ch.enqueue(pkt(100 + i, 9, 0, 0));
            }
            run_with_slow_ejection(&mut ch, &mut m, &mut d, 2000, 4);
            assert_eq!(d.len(), 24);
            assert_eq!(m.drops, 0, "circulation never drops");
            assert!(m.circulations > 0, "buffer pressure must force circulation");
            assert!(ch.is_drained());
        });
    }

    #[test]
    fn token_slot_respects_credit_limit() {
        // With buffer 4 and ejection stalled... ejection always runs; instead
        // check the reservation invariant holds while many senders compete.
        with_channel!(0, &cfg(Scheme::TokenSlot), |ch| {
            let mut m = NetworkMetrics::new();
            let mut d = Vec::new();
            let mut id = 0;
            for src in 1..16 {
                for _ in 0..4 {
                    id += 1;
                    ch.enqueue(pkt(id, src, 0, 0));
                }
            }
            run(&mut ch, &mut m, &mut d, 0, 3000);
            assert_eq!(d.len(), 60);
            assert!(ch.is_drained());
            assert_eq!(m.drops, 0, "credit reservation prevents drops");
        });
    }

    #[test]
    fn token_channel_reimburses_credits() {
        with_channel!(0, &cfg(Scheme::TokenChannel), |ch| {
            let mut m = NetworkMetrics::new();
            let mut d = Vec::new();
            // More packets than the 4 credits the token starts with.
            for i in 0..20 {
                ch.enqueue(pkt(i, 8, 0, 0));
            }
            run(&mut ch, &mut m, &mut d, 0, 3000);
            assert_eq!(d.len(), 20, "credits must be reimbursed to finish");
            assert!(ch.is_drained());
        });
    }

    #[test]
    fn basic_dhs_hol_blocks_harder_than_setaside() {
        // One sender, many packets: basic DHS sends 1 per handshake round
        // trip; setaside pipelines them.
        let run_scheme = |scheme| {
            let cycles = with_channel!(0, &cfg(scheme), |ch| {
                let mut m = NetworkMetrics::new();
                let mut d = Vec::new();
                for i in 0..30 {
                    ch.enqueue(pkt(i, 8, 0, 0));
                }
                let mut cycles = 0;
                for now in 0..5000u64 {
                    ch.step(now, &mut m, &mut d);
                    if d.len() == 30 {
                        cycles = now;
                        break;
                    }
                }
                cycles
            });
            assert!(cycles > 0, "{scheme:?} never finished");
            cycles
        };
        let basic = run_scheme(Scheme::Dhs { setaside: 0 });
        let setaside = run_scheme(Scheme::Dhs { setaside: 4 });
        assert!(
            basic > setaside + 30,
            "setaside should finish much sooner (basic {basic} vs setaside {setaside})"
        );
    }

    #[test]
    fn ghs_holder_sends_back_to_back() {
        // A single GHS sender with setaside should stream packets once it
        // holds the token (1/cycle), unlike basic GHS.
        let d = with_channel!(0, &cfg(Scheme::Ghs { setaside: 4 }), |ch| {
            let mut m = NetworkMetrics::new();
            let mut d = Vec::new();
            for i in 0..4 {
                ch.enqueue(pkt(i, 8, 0, 0));
            }
            run(&mut ch, &mut m, &mut d, 0, 40);
            d
        });
        assert_eq!(d.len(), 4);
        // Sends should be on consecutive cycles: check sent_at spacing.
        let mut sent: Vec<Cycle> = d.iter().map(|x| x.pkt.sent_at).collect();
        sent.sort_unstable();
        for w in sent.windows(2) {
            assert_eq!(w[1] - w[0], 1, "holder should transmit back-to-back");
        }
    }

    #[test]
    fn fairness_sitout_spreads_service() {
        // Two senders, one near the home and one far; near sender floods.
        let run_with = |fairness| {
            let mut config = cfg(Scheme::Dhs { setaside: 4 });
            config.fairness = fairness;
            with_channel!(0, &config, |ch| {
                let mut m = NetworkMetrics::new();
                let mut d = Vec::new();
                // Both senders keep a deep backlog for the whole horizon; the
                // near node (distance 0) sees every token first.
                for i in 0..300 {
                    ch.enqueue(pkt(i, 1, 0, 0)); // near (distance 0)
                    ch.enqueue(pkt(1000 + i, 15, 0, 0)); // far (distance 14)
                }
                run(&mut ch, &mut m, &mut d, 0, 150);
                d.iter().filter(|x| x.pkt.src_node == 15).count()
            })
        };
        let without = run_with(FairnessPolicy::None);
        let with = run_with(FairnessPolicy::SitOut {
            serve_quota: 4,
            sit_out: 8,
        });
        assert!(
            with > without,
            "sit-out should help the far node ({with} vs {without})"
        );
    }

    #[test]
    fn audit_view_into_reuses_buffers() {
        with_channel!(0, &cfg(Scheme::Dhs { setaside: 2 }), |ch| {
            let mut m = NetworkMetrics::new();
            let mut d = Vec::new();
            for i in 0..6 {
                ch.enqueue(pkt(i, 4, 0, 0));
            }
            run(&mut ch, &mut m, &mut d, 0, 5);
            let snapshot = |ch: &Channel<_, _>| {
                let mut out = crate::audit::ChannelAuditView::default();
                ch.audit_view_into(&mut out);
                out
            };
            let mut view = crate::audit::ChannelAuditView::default();
            ch.audit_view_into(&mut view);
            let fresh = snapshot(&ch);
            assert_eq!(view.queue_ids, fresh.queue_ids);
            assert_eq!(view.unresolved_ids, fresh.unresolved_ids);
            // Refill after more cycles: stale content must be fully replaced.
            run(&mut ch, &mut m, &mut d, 5, 20);
            ch.audit_view_into(&mut view);
            let fresh = snapshot(&ch);
            assert_eq!(view.queue_ids, fresh.queue_ids);
            assert_eq!(view.input_queue_ids, fresh.input_queue_ids);
            assert_eq!(view.pending_acks, fresh.pending_acks);
        });
    }
}
