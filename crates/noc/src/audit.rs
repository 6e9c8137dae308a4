//! Cycle-level invariant auditing: cross-field conservation laws checked
//! against live simulator state.
//!
//! [`Channel::try_check_invariants`](crate::channel::Channel::try_check_invariants)
//! validates a single channel's *local* bookkeeping. The
//! [`InvariantAuditor`] goes further: it cross-checks state against the
//! run-level metrics to enforce the conservation laws the paper's arguments
//! rest on —
//!
//! * **flit conservation** — every packet ever generated is, at all times,
//!   exactly one of: awaiting injection, queued at a sender, riding the
//!   ring, buffered at a home, delivered, destroyed by a fault, or
//!   abandoned after exhausting its retry budget;
//! * **exactly-once delivery** — no packet id is ever handed to the local
//!   cores twice (the property duplicate suppression exists to protect);
//! * **credit/token conservation** — for the token-channel scheme, the
//!   home's `input_buffer` credits are conserved across every ledger they
//!   can live in (token, uncommitted pool, outstanding grants, ring flits,
//!   buffer slots, fault leaks); for the token-slot scheme the committed
//!   reservations never exceed capacity;
//! * **ACK pairing** — for handshake schemes, every transmitted-but-
//!   unresolved packet has something that will eventually resolve it: a
//!   copy still on the ring, a handshake in flight, or an armed ACK timer;
//! * **no class starvation** — under admission control, a traffic class
//!   with queued packets keeps receiving grants: because every class
//!   refills at ≥ 1 credit per period, a backlogged class whose grant
//!   counter stops advancing for many refill periods is a liveness bug in
//!   the admission/arbitration pipeline, not a tuning artifact
//!   ([`InvariantAuditor::check_starvation`]).
//!
//! [`crate::network::Network::attach_auditor`] attaches it at run time, like
//! the trace and the sampler; every `step` of an audited network then runs
//! it. Structural checks are stride-sampled on large configurations so
//! audited runs stay fast, while delivery observation (the exactly-once
//! check) runs every cycle. A detached network pays one branch per cycle.

use crate::config::Scheme;
use crate::metrics::NetworkMetrics;
use pnoc_sim::Cycle;
use pnoc_traffic::MAX_CLASSES;
use std::collections::BTreeSet;

/// Everything the auditor needs to know about one channel, snapshotted by
/// [`crate::channel::Channel::audit_view_into`]. Owning plain vectors keeps
/// the auditor decoupled from channel internals (and borrow-friendly inside
/// `Network::step`); the `_into` form refills a `Default` view in place so
/// the sampled audit path reuses its allocations.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChannelAuditView {
    /// Home node id.
    pub home: usize,
    /// Scheme the channel runs.
    pub scheme: Scheme,
    /// Home input-buffer capacity.
    pub buffer_cap: usize,
    /// Ids buffered at the home, in queue order.
    pub input_queue_ids: Vec<u64>,
    /// Buffer slots held by flits traversing the ejection router.
    pub draining: u32,
    /// Ids of flits currently on the data ring.
    pub ring_ids: Vec<u64>,
    /// Ids queued at senders (including pending heads).
    pub queue_ids: Vec<u64>,
    /// Ids held in sender setaside buffers.
    pub setaside_ids: Vec<u64>,
    /// Ids transmitted but not yet resolved by a handshake.
    pub unresolved_ids: Vec<u64>,
    /// Grants taken but not yet consumed by a transmission, summed over
    /// senders.
    pub granted_total: u32,
    /// Handshakes in flight as `(packet id, is_ack)`.
    pub pending_acks: Vec<(u64, bool)>,
    /// Packet ids with an armed (possibly stale) ACK timer.
    pub armed_timer_ids: Vec<u64>,
    /// Credits riding the global token (token channel only).
    pub credits: Option<u32>,
    /// Live distributed tokens.
    pub outstanding_tokens: usize,
    /// Token channel: credits freed by ejections, awaiting the token.
    pub uncommitted: u32,
    /// Token slot: reservations travelling with granted tokens / flits.
    pub inflight: u32,
    /// Token slot: reservations destroyed by token-loss faults.
    pub lost_reservations: u32,
    /// Token channel: credits permanently destroyed by faults.
    pub leaked_credits: u32,
    /// Whether timeout/retransmit recovery is armed.
    pub recovery_enabled: bool,
    /// Whether fault injection is live on this channel.
    pub faults_active: bool,
    /// Whether per-class admission control is configured.
    pub admission_enabled: bool,
    /// Admission refill period in cycles (0 when admission is off).
    pub admission_period: u32,
    /// Queued packets per class, summed over senders.
    pub class_backlog: [usize; MAX_CLASSES],
    /// Cumulative grants per class (the starvation audit's progress
    /// witness).
    pub class_granted: [u64; MAX_CLASSES],
}

/// Network-wide invariant auditor (see module docs). One instance lives for
/// the whole run: it accumulates the delivered-id set that the conservation
/// and exactly-once checks need.
#[derive(Debug, Clone, Default)]
pub(crate) struct InvariantAuditor {
    delivered_ids: BTreeSet<u64>,
    stride: u64,
    /// Starvation tracking, indexed `[channel][class]`: the grant count at
    /// the last sample and how long the class has been backlogged without
    /// a single new grant. Grown lazily to the view count.
    starvation: Vec<[StarveCell; MAX_CLASSES]>,
}

/// Per-(channel, class) starvation-progress cell.
#[derive(Debug, Clone, Copy, Default)]
struct StarveCell {
    /// `class_granted` at the last observation.
    last_granted: u64,
    /// Cycle the class became backlogged with no grant progress since
    /// (`None` while idle or progressing).
    stalled_since: Option<Cycle>,
}

/// Full structural checks run every cycle up to this many nodes; larger
/// networks are stride-sampled (delivery observation still runs every
/// cycle). 61 is prime, so sampling never locks onto a periodic artifact
/// of ring length or token sweep period.
const FULL_CHECK_NODES: usize = 8;
const SAMPLED_STRIDE: u64 = 61;

impl InvariantAuditor {
    /// An auditor for a network of `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        Self {
            delivered_ids: BTreeSet::new(),
            stride: if nodes <= FULL_CHECK_NODES {
                1
            } else {
                SAMPLED_STRIDE
            },
            starvation: Vec::new(),
        }
    }

    /// Record a delivery. Fails on a duplicate — the exactly-once check.
    pub fn observe_delivery(&mut self, id: u64) -> Result<(), String> {
        if self.delivered_ids.insert(id) {
            Ok(())
        } else {
            Err(format!("packet {id} delivered twice"))
        }
    }

    /// Whether the (possibly sampled) structural check is due at `now`.
    pub fn due(&self, now: Cycle) -> bool {
        now.is_multiple_of(self.stride)
    }

    /// Run every structural check against the channel snapshots, the
    /// accumulated metrics, and the ids still waiting in the injection
    /// pipeline. Returns the first violation found.
    pub fn check(
        &self,
        views: &[ChannelAuditView],
        m: &NetworkMetrics,
        pending_inject_ids: &[u64],
    ) -> Result<(), String> {
        for v in views {
            Self::check_buffer(v)?;
            Self::check_credit_conservation(v)?;
            Self::check_ack_pairing(v)?;
        }
        self.check_flit_conservation(views, m, pending_inject_ids)?;
        // (Starvation is checked separately — it needs `&mut self` to track
        // progress across samples; see [`InvariantAuditor::check_starvation`].)
        if self.delivered_ids.len() as u64 != m.delivered {
            return Err(format!(
                "delivered counter ({}) disagrees with observed deliveries ({})",
                m.delivered,
                self.delivered_ids.len()
            ));
        }
        Ok(())
    }

    /// Liveness across samples: under admission control, a backlogged class
    /// must keep receiving grants. The tolerance is many refill periods (and
    /// never under 4096 cycles), so transient contention — another class
    /// bursting, a fairness sit-out, a full buffer — cannot trip it; only a
    /// class that is genuinely wedged can. Call once per sampled cycle,
    /// after [`InvariantAuditor::check`].
    pub fn check_starvation(
        &mut self,
        now: Cycle,
        views: &[ChannelAuditView],
    ) -> Result<(), String> {
        if self.starvation.len() < views.len() {
            self.starvation
                .resize(views.len(), [StarveCell::default(); MAX_CLASSES]);
        }
        for (i, v) in views.iter().enumerate() {
            if !v.admission_enabled {
                continue;
            }
            let window = (u64::from(v.admission_period) * 64).max(4096);
            for c in 0..MAX_CLASSES {
                let cell = &mut self.starvation[i][c];
                let progressed = v.class_granted[c] != cell.last_granted;
                cell.last_granted = v.class_granted[c];
                if v.class_backlog[c] == 0 || progressed {
                    cell.stalled_since = None;
                    continue;
                }
                let since = *cell.stalled_since.get_or_insert(now);
                if now.saturating_sub(since) > window {
                    return Err(format!(
                        "home {}: class {c} starved — backlog {} with no \
                         grant since cycle {since} (now {now}, tolerance {window})",
                        v.home, v.class_backlog[c]
                    ));
                }
            }
        }
        Ok(())
    }

    /// Buffer occupancy (queued + draining) never exceeds capacity; for the
    /// token slot, committed reservations never exceed capacity either.
    fn check_buffer(v: &ChannelAuditView) -> Result<(), String> {
        let occupied = v.input_queue_ids.len() + v.draining as usize;
        if occupied > v.buffer_cap {
            return Err(format!(
                "home {}: buffer occupancy {occupied} exceeds capacity {}",
                v.home, v.buffer_cap
            ));
        }
        if v.scheme == Scheme::TokenSlot {
            let committed = occupied
                + v.inflight as usize
                + v.lost_reservations as usize
                + v.outstanding_tokens;
            if committed > v.buffer_cap {
                return Err(format!(
                    "home {}: token-slot commitments {committed} exceed capacity {}",
                    v.home, v.buffer_cap
                ));
            }
        }
        Ok(())
    }

    /// Token channel: the `input_buffer` credits the channel was born with
    /// are conserved across every ledger a credit can live in.
    fn check_credit_conservation(v: &ChannelAuditView) -> Result<(), String> {
        if v.scheme != Scheme::TokenChannel {
            return Ok(());
        }
        let Some(credits) = v.credits else {
            return Err(format!("home {}: token channel without credits", v.home));
        };
        // `recovery_enabled` on a credit scheme would route duplicates
        // through an unaccounted discard path; no supported configuration
        // arms it, so the ledger below is exhaustive.
        let total = credits as usize
            + v.uncommitted as usize
            + v.leaked_credits as usize
            + v.granted_total as usize
            + v.ring_ids.len()
            + v.input_queue_ids.len()
            + v.draining as usize;
        if total != v.buffer_cap {
            return Err(format!(
                "home {}: credit conservation violated: {credits} on token + {} \
                 uncommitted + {} leaked + {} granted + {} on ring + {} buffered \
                 + {} draining = {total}, expected {}",
                v.home,
                v.uncommitted,
                v.leaked_credits,
                v.granted_total,
                v.ring_ids.len(),
                v.input_queue_ids.len(),
                v.draining,
                v.buffer_cap
            ));
        }
        Ok(())
    }

    /// Handshake schemes: every transmitted-but-unresolved packet must hold
    /// something that will eventually resolve it — a ring copy, a handshake
    /// in flight, or (with recovery) an armed ACK timer. Skipped when faults
    /// are active without recovery: a lost ACK then legitimately wedges the
    /// sender copy forever, which is precisely the failure mode the
    /// reliability subsystem exists to demonstrate.
    fn check_ack_pairing(v: &ChannelAuditView) -> Result<(), String> {
        if !v.scheme.uses_handshake() {
            return Ok(());
        }
        if v.faults_active && !v.recovery_enabled {
            return Ok(());
        }
        for &id in &v.unresolved_ids {
            let on_ring = v.ring_ids.contains(&id);
            let ack_in_flight = v.pending_acks.iter().any(|&(aid, _)| aid == id);
            let timer_armed = v.recovery_enabled && v.armed_timer_ids.contains(&id);
            if !(on_ring || ack_in_flight || timer_armed) {
                return Err(format!(
                    "home {}: packet {id} awaits a handshake but nothing can \
                     resolve it (no ring copy, no ACK in flight, no armed timer)",
                    v.home
                ));
            }
        }
        Ok(())
    }

    /// Network-wide flit conservation over *distinct ids*: a handshake
    /// scheme holds a sender-side copy of a packet the home may already
    /// have delivered, so copies cannot simply be counted — the union of
    /// live and delivered ids must equal everything generated minus
    /// everything destroyed.
    fn check_flit_conservation(
        &self,
        views: &[ChannelAuditView],
        m: &NetworkMetrics,
        pending_inject_ids: &[u64],
    ) -> Result<(), String> {
        // Live ids are few (bounded by queues + ring + buffers); collect
        // them and count only the ones not already delivered, instead of
        // cloning the (large, monotonically growing) delivered set.
        let mut live: BTreeSet<u64> = pending_inject_ids.iter().copied().collect();
        for v in views {
            live.extend(v.queue_ids.iter().copied());
            live.extend(v.setaside_ids.iter().copied());
            live.extend(v.ring_ids.iter().copied());
            live.extend(v.input_queue_ids.iter().copied());
        }
        let undelivered_live = live
            .iter()
            .filter(|id| !self.delivered_ids.contains(id))
            .count();
        let accounted = (self.delivered_ids.len() + undelivered_live) as u64;
        // Destroyed-for-good packets by scheme: handshake schemes retransmit
        // through faults and only `abandoned` (retry budget exhausted) is
        // final; the forget-on-send schemes lose every faulted flit.
        let gone = match views.first().map(|v| v.scheme) {
            Some(s) if s.uses_handshake() => m.abandoned,
            _ => m.faults_data_lost + m.faults_data_corrupt,
        };
        let expected = m.generated.saturating_sub(gone);
        if accounted != expected {
            return Err(format!(
                "flit conservation violated: {accounted} distinct ids live or \
                 delivered, expected {expected} ({} generated - {gone} destroyed)",
                m.generated
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A healthy 4-slot DHS home: packet 2 queued at a sender, packet 3
    /// buffered, packet 4 on the ring awaiting its handshake.
    fn clean_view() -> ChannelAuditView {
        ChannelAuditView {
            scheme: Scheme::Dhs { setaside: 0 },
            buffer_cap: 4,
            queue_ids: vec![2],
            input_queue_ids: vec![3],
            ring_ids: vec![4],
            unresolved_ids: vec![4],
            ..ChannelAuditView::default()
        }
    }

    /// An auditor that has seen packets 0 and 1 delivered, and metrics that
    /// agree with [`clean_view`]: five generated, two delivered.
    fn auditor_and_metrics() -> (InvariantAuditor, NetworkMetrics) {
        let mut a = InvariantAuditor::new(4);
        a.observe_delivery(0).unwrap();
        a.observe_delivery(1).unwrap();
        let mut m = NetworkMetrics::new();
        m.generated = 5;
        m.delivered = 2;
        (a, m)
    }

    fn check_err(view: &ChannelAuditView, m: &NetworkMetrics) -> String {
        let (a, _) = auditor_and_metrics();
        a.check(std::slice::from_ref(view), m, &[])
            .expect_err("the broken law must be caught")
    }

    #[test]
    fn clean_view_passes() {
        let (mut a, m) = auditor_and_metrics();
        let mut v = clean_view();
        a.check(std::slice::from_ref(&v), &m, &[]).unwrap();
        v.admission_enabled = true;
        v.class_backlog[1] = 1;
        for now in [0, 5_000, 10_000] {
            v.class_granted[1] = now;
            a.check_starvation(now, std::slice::from_ref(&v)).unwrap();
        }
    }

    #[test]
    fn duplicate_delivery_is_caught() {
        let (mut a, _) = auditor_and_metrics();
        let why = a.observe_delivery(1).unwrap_err();
        assert!(why.contains("packet 1 delivered twice"), "{why}");
    }

    #[test]
    fn buffer_overflow_is_caught() {
        let mut v = clean_view();
        v.input_queue_ids = vec![3, 5, 6];
        v.draining = 2;
        let why = check_err(&v, &auditor_and_metrics().1);
        assert!(
            why.contains("buffer occupancy 5 exceeds capacity 4"),
            "{why}"
        );
    }

    #[test]
    fn token_channel_credit_leak_is_caught() {
        // 2 credits on the token + 1 buffered + 0 on the ring = 3 ≠ 4.
        let mut v = clean_view();
        v.scheme = Scheme::TokenChannel;
        v.credits = Some(2);
        v.ring_ids.clear();
        v.unresolved_ids.clear();
        let why = check_err(&v, &auditor_and_metrics().1);
        assert!(why.contains("credit conservation violated"), "{why}");
        assert!(why.contains("= 3, expected 4"), "{why}");
    }

    #[test]
    fn unresolvable_handshake_is_caught() {
        let mut v = clean_view();
        v.ring_ids.clear();
        let why = check_err(&v, &auditor_and_metrics().1);
        assert!(
            why.contains("packet 4 awaits a handshake but nothing can resolve it"),
            "{why}"
        );
    }

    #[test]
    fn flit_conservation_off_by_one_is_caught() {
        let (_, mut m) = auditor_and_metrics();
        m.generated += 1;
        let why = check_err(&clean_view(), &m);
        assert!(why.contains("flit conservation violated"), "{why}");
        assert!(
            why.contains("5 distinct ids live or delivered, expected 6"),
            "{why}"
        );
    }

    #[test]
    fn delivered_counter_mismatch_is_caught() {
        let (_, mut m) = auditor_and_metrics();
        m.delivered = 3;
        let why = check_err(&clean_view(), &m);
        assert!(
            why.contains("delivered counter (3) disagrees with observed deliveries (2)"),
            "{why}"
        );
    }

    #[test]
    fn starved_admission_class_is_caught() {
        // Period 4 gives the floor tolerance of 4096 cycles.
        let (mut a, _) = auditor_and_metrics();
        let mut v = clean_view();
        v.admission_enabled = true;
        v.admission_period = 4;
        v.class_backlog[1] = 3;
        v.class_granted[1] = 7;
        let views = std::slice::from_ref(&v);
        a.check_starvation(0, views).unwrap();
        a.check_starvation(1, views).unwrap();
        a.check_starvation(4_097, views).unwrap();
        let why = a.check_starvation(4_098, views).unwrap_err();
        assert!(why.contains("class 1 starved"), "{why}");
        assert!(why.contains("no grant since cycle 1"), "{why}");
    }
}
