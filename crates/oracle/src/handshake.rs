//! Reference interpreter for the **handshake** schemes — GHS (global
//! arbitration) and DHS (distributed arbitration), with or without setaside
//! buffers, with or without timeout/retransmit recovery.
//!
//! Senders transmit optimistically; the home answers every arrival with an
//! ACK (accepted) or NACK (buffer full / corrupt) landing a fixed
//! `segments + 1` cycles after the transmission. With recovery armed, each
//! transmission also arms a sender-side timer; on expiry the packet is
//! retransmitted (or abandoned past its retry budget), and the home
//! suppresses re-accepted duplicates by id.
//!
//! Note the oracle implements duplicate suppression *unconditionally
//! correctly* — it has no counterpart to `pnoc-noc`'s
//! `Network::disable_duplicate_suppression` switch. That asymmetry is what
//! lets the differential harness prove it detects real divergence.

use crate::channel::{RefChannel, RefToken};
use crate::diff::Counters;
use pnoc_faults::{AckFate, DataFate};
use pnoc_noc::Packet;
use pnoc_sim::Cycle;

/// Advance the channel one cycle.
pub fn step(
    ch: &mut RefChannel,
    now: Cycle,
    m: &mut Counters,
    deliveries: &mut Vec<(Packet, Cycle)>,
) {
    ch.phase_advance();
    phase_arrival(ch, now, m);
    phase_acks(ch, now, m);
    ch.fire_timers(now, m);
    ch.phase_transmit(now, m);
    if ch.global {
        phase_token_global(ch, now, m);
    } else {
        phase_tokens_distributed(ch, now, m);
    }
    ch.phase_eject(now, m, deliveries);
}

/// Arrival: answer every surviving flit with a handshake pulse scheduled
/// `segments + 1` cycles after its transmission.
fn phase_arrival(ch: &mut RefChannel, now: Cycle, m: &mut Counters) {
    let Some(pkt) = ch.take_flit() else {
        return;
    };
    let sender = pkt.src_node as usize;
    let ack_at = pkt.sent_at + ch.handshake_delay;
    match ch.arrival_fate(&pkt, now) {
        DataFate::Lost => {
            m.faults_data_lost += 1;
        }
        DataFate::Corrupt => {
            m.arrivals += 1;
            m.faults_data_corrupt += 1;
            ch.schedule_ack(ack_at, sender, pkt.id, false);
        }
        DataFate::Intact => {
            m.arrivals += 1;
            debug_assert!(ack_at > now, "handshake must land strictly later");
            if ch.recovery.enabled && ch.accepted.contains(&pkt.id) {
                // A retransmission of a packet already accepted: discard
                // the copy, but re-ACK so the sender stops retrying.
                m.duplicates_suppressed += 1;
                ch.schedule_ack(ack_at, sender, pkt.id, true);
            } else if ch.has_room() {
                ch.schedule_ack(ack_at, sender, pkt.id, true);
                if ch.recovery.enabled {
                    ch.accepted.push(pkt.id);
                }
                ch.input.push(pkt);
            } else {
                m.drops += 1;
                ch.schedule_ack(ack_at, sender, pkt.id, false);
            }
        }
    }
}

/// Deliver the handshake pulses landing this cycle, in scheduling order.
/// Without recovery a pulse must always find its packet; with recovery a
/// timer may already have resolved it (stale handshakes are legal).
fn phase_acks(ch: &mut RefChannel, now: Cycle, m: &mut Counters) {
    for ev in ch.drain_acks(now) {
        if let Some(inj) = ch.injector.as_mut() {
            if inj.active() && inj.ack_fate(ch.handshake_delay) == AckFate::Lost {
                m.faults_acks_lost += 1;
                continue;
            }
        }
        if ev.ok {
            if ch.queues[ev.sender].ack(ev.id).is_none() {
                assert!(ch.recovery.enabled, "ACK for unknown packet {}", ev.id);
            }
        } else if ch.queues[ev.sender].nack(ev.id) {
            m.retransmissions += 1;
        } else {
            assert!(ch.recovery.enabled, "NACK for unknown packet {}", ev.id);
        }
    }
}

/// GHS: the single global token sweeps downstream windows; handshake
/// senders need no credit, so eligibility alone decides grabs.
fn phase_token_global(ch: &mut RefChannel, now: Cycle, m: &mut Counters) {
    ch.tick_admission(now);
    let watchdog = 2 * ch.handshake_delay;

    if let Some(inj) = ch.injector.as_mut() {
        if inj.active() && matches!(ch.token, RefToken::Sweeping { .. }) && inj.token_lost() {
            m.faults_tokens_lost += 1;
            ch.token = RefToken::Lost { since: now };
        }
    }

    match ch.token {
        RefToken::Lost { since } => {
            if now.saturating_sub(since) >= watchdog {
                ch.token = RefToken::Sweeping { next: 0 };
            }
        }
        RefToken::Held { node } => {
            if ch.queues[node].granted > 0 {
                // Still consuming its grant; keep holding.
            } else if ch.queues[node].eligible(now, ch.fairness) && ch.admits(node) {
                ch.grant(node, now);
            } else {
                release(ch, ch.dist_of(node) + 1);
            }
        }
        RefToken::Sweeping { next } => {
            let hi = (next + ch.step).min(ch.nodes - 1);
            if let Some(node) = ch.first_eligible_in(next, hi, now) {
                ch.grant(node, now);
                ch.token = RefToken::Held { node };
            } else {
                release(ch, hi);
            }
        }
    }
}

/// Continue the global sweep from distance `next`, wrapping at the home.
fn release(ch: &mut RefChannel, next: usize) {
    if next >= ch.nodes - 1 {
        ch.token = RefToken::Sweeping { next: 0 };
    } else {
        ch.token = RefToken::Sweeping { next };
    }
}

/// DHS: the home emits one token per cycle unconditionally (the handshake,
/// not the token, protects the buffer); each travelling token sweeps
/// downstream windows until claimed or expired.
fn phase_tokens_distributed(ch: &mut RefChannel, now: Cycle, m: &mut Counters) {
    ch.tick_admission(now);
    if let Some(inj) = ch.injector.as_mut() {
        if inj.active() && !ch.tokens.is_empty() {
            let before = ch.tokens.len();
            ch.tokens.retain(|_| !inj.token_lost());
            let destroyed = before - ch.tokens.len();
            if destroyed > 0 {
                m.faults_tokens_lost += destroyed as u64;
            }
        }
    }

    ch.suppress_token = false;
    ch.tokens.push(0);

    // Windows are disjoint, but the admission buckets are *shared* state
    // across windows: sweep in ascending downstream distance (newest token
    // first), the same order the optimized simulator scans its sendable
    // bit-plane, so a bucket's last credit goes to the same window in both
    // simulators. The token vec is oldest-first (largest window start
    // first), hence the descending index walk.
    let mut idx = ch.tokens.len();
    while idx > 0 {
        idx -= 1;
        let next = ch.tokens[idx];
        let hi = (next + ch.step).min(ch.nodes - 1);
        if let Some(node) = ch.first_eligible_in(next, hi, now) {
            ch.grant(node, now);
            ch.tokens.remove(idx);
        } else {
            ch.tokens[idx] = hi;
            if hi >= ch.nodes - 1 {
                ch.tokens.remove(idx);
            }
        }
    }
}
