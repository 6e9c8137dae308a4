//! Differential execution: run one [`FuzzCase`] through both simulators in
//! lockstep and compare everything observable.
//!
//! "Everything observable" is deliberately strict: all eighteen event
//! counters, the full per-packet ejection log (packet *and* the cycle its
//! buffer slot frees), and the drained flag after the post-run grace
//! period. On top of the pairwise diff, [`check_case`] asserts conservation
//! invariants that must hold of *both* simulators — catching the case where
//! the two implementations share a bug.

use crate::cases::FuzzCase;
use crate::net::RefNetwork;
use pnoc_noc::sources::{TrafficSource, TRAFFIC_SEED_XOR};
use pnoc_noc::{ClassedSource, Network, NetworkMetrics, Packet, PacketKind};
use pnoc_sim::{Cycle, RunPlan};

/// The comparable event counters — every `u64` event counter the optimized
/// simulator keeps. Derived statistics (latency moments, queue-wait) are
/// deliberately excluded: they are functions of the ejection log, which is
/// compared element-wise instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Packets created by sources.
    pub generated: u64,
    /// Generated during the measurement window.
    pub generated_measured: u64,
    /// Packets ejected at their destination.
    pub delivered: u64,
    /// Delivered packets that were measured.
    pub delivered_measured: u64,
    /// Transmissions onto the ring (including retransmissions).
    pub sends: u64,
    /// Handshake NACKs due to a full home buffer.
    pub drops: u64,
    /// Retransmissions triggered by NACKs.
    pub retransmissions: u64,
    /// Circulation re-injections (DHS-circulation only).
    pub circulations: u64,
    /// Flits that completed ring traversal to their home.
    pub arrivals: u64,
    /// Data flits destroyed in flight.
    pub faults_data_lost: u64,
    /// Data flits corrupted in flight.
    pub faults_data_corrupt: u64,
    /// ACK/NACK pulses destroyed in flight.
    pub faults_acks_lost: u64,
    /// Arbitration tokens destroyed in flight.
    pub faults_tokens_lost: u64,
    /// Cycles an ejection port spent stalled by a fault.
    pub stall_cycles: u64,
    /// Retransmissions triggered by ACK timeouts.
    pub timeout_retransmissions: u64,
    /// Duplicate arrivals suppressed at the home.
    pub duplicates_suppressed: u64,
    /// Packets abandoned after exhausting their retry budget.
    pub abandoned: u64,
    /// Credits/reservations permanently destroyed by faults.
    pub credit_leaks: u64,
}

impl Counters {
    /// Snapshot the comparable counters out of the optimized simulator.
    pub fn from_network(m: &NetworkMetrics) -> Self {
        Self {
            generated: m.generated,
            generated_measured: m.generated_measured,
            delivered: m.delivered,
            delivered_measured: m.delivered_measured,
            sends: m.sends,
            drops: m.drops,
            retransmissions: m.retransmissions,
            circulations: m.circulations,
            arrivals: m.arrivals,
            faults_data_lost: m.faults_data_lost,
            faults_data_corrupt: m.faults_data_corrupt,
            faults_acks_lost: m.faults_acks_lost,
            faults_tokens_lost: m.faults_tokens_lost,
            stall_cycles: m.stall_cycles,
            timeout_retransmissions: m.timeout_retransmissions,
            duplicates_suppressed: m.duplicates_suppressed,
            abandoned: m.abandoned,
            credit_leaks: m.credit_leaks,
        }
    }

    /// `(name, self value, other value)` for every differing field.
    pub fn diff(&self, other: &Self) -> Vec<(&'static str, u64, u64)> {
        let fields: [(&'static str, u64, u64); 18] = [
            ("generated", self.generated, other.generated),
            (
                "generated_measured",
                self.generated_measured,
                other.generated_measured,
            ),
            ("delivered", self.delivered, other.delivered),
            (
                "delivered_measured",
                self.delivered_measured,
                other.delivered_measured,
            ),
            ("sends", self.sends, other.sends),
            ("drops", self.drops, other.drops),
            (
                "retransmissions",
                self.retransmissions,
                other.retransmissions,
            ),
            ("circulations", self.circulations, other.circulations),
            ("arrivals", self.arrivals, other.arrivals),
            (
                "faults_data_lost",
                self.faults_data_lost,
                other.faults_data_lost,
            ),
            (
                "faults_data_corrupt",
                self.faults_data_corrupt,
                other.faults_data_corrupt,
            ),
            (
                "faults_acks_lost",
                self.faults_acks_lost,
                other.faults_acks_lost,
            ),
            (
                "faults_tokens_lost",
                self.faults_tokens_lost,
                other.faults_tokens_lost,
            ),
            ("stall_cycles", self.stall_cycles, other.stall_cycles),
            (
                "timeout_retransmissions",
                self.timeout_retransmissions,
                other.timeout_retransmissions,
            ),
            (
                "duplicates_suppressed",
                self.duplicates_suppressed,
                other.duplicates_suppressed,
            ),
            ("abandoned", self.abandoned, other.abandoned),
            ("credit_leaks", self.credit_leaks, other.credit_leaks),
        ];
        fields.into_iter().filter(|&(_, a, b)| a != b).collect()
    }
}

/// Everything observable about one simulator's run of a case.
#[derive(Debug, Clone)]
pub struct RunArtifacts {
    /// Final counter values.
    pub counters: Counters,
    /// Every ejection, in order: the packet and the cycle its buffer slot
    /// frees (`available_at`).
    pub log: Vec<(Packet, Cycle)>,
    /// Whether the network fully drained within the grace period.
    pub drained: bool,
}

/// Grace cycles granted after the planned run for in-flight packets (and,
/// under faults, timeout/retransmit recovery) to finish.
fn grace_cycles(case: &FuzzCase) -> u64 {
    if case.admission.enabled() {
        // Admission throttles drain to refill/period grants per class:
        // a backlogged queue may legitimately take thousands of cycles to
        // empty even though every class is guaranteed progress.
        20_000
    } else if case.faults.enabled() {
        10_000
    } else {
        4 * case.segments as u64 + 64
    }
}

/// Run `case` through the optimized simulator and the oracle in lockstep.
///
/// Both receive byte-identical injection schedules (precomputed from one
/// [`SyntheticSource`]) and step the same number of cycles. Returns
/// `(optimized, oracle)` artifacts, or `Err` if the case's configuration is
/// invalid.
pub fn run_pair(case: &FuzzCase) -> Result<(RunArtifacts, RunArtifacts), String> {
    let cfg = case.config();
    cfg.validate()?;
    let plan = RunPlan::new(case.warmup, case.measure, case.drain);

    // Precompute the injection schedule so both simulators observe the
    // exact same traffic regardless of their internal call patterns. The
    // classed source covers the tenant-mix dimension; a SingleClass mix is
    // bit-identical to the plain synthetic source it replaced.
    let mut source = ClassedSource::new(
        case.mix,
        case.rate,
        case.pattern,
        cfg.nodes,
        cfg.cores_per_node,
        cfg.seed ^ TRAFFIC_SEED_XOR,
    );
    let mut schedule: Vec<(Cycle, usize, usize, PacketKind, u8, bool)> = Vec::new();
    let mut buf = Vec::new();
    for now in 0..(plan.warmup + plan.measure) {
        buf.clear();
        source.generate(now, &mut buf);
        for &(core, dst, kind, class) in &buf {
            schedule.push((now, core, dst, kind, class, plan.measures(now)));
        }
    }

    let mut noc = Network::new(cfg)?;
    if case.sabotage {
        noc.disable_duplicate_suppression();
    }
    let mut oracle = RefNetwork::new(cfg)?;
    let mut noc_log = Vec::new();
    let mut oracle_log = Vec::new();
    let mut cursor = 0;

    let step_both = |noc: &mut Network,
                     oracle: &mut RefNetwork,
                     noc_log: &mut Vec<(Packet, Cycle)>,
                     oracle_log: &mut Vec<(Packet, Cycle)>| {
        noc.step();
        oracle.step();
        for d in noc.deliveries() {
            noc_log.push((d.pkt, d.available_at));
        }
        oracle_log.extend_from_slice(oracle.deliveries());
    };

    for now in 0..plan.total() {
        while cursor < schedule.len() && schedule[cursor].0 == now {
            let (_, core, dst, kind, class, measured) = schedule[cursor];
            noc.inject_classed(core, dst, kind, 0, class, measured);
            oracle.inject_classed(core, dst, kind, 0, class, measured);
            cursor += 1;
        }
        step_both(&mut noc, &mut oracle, &mut noc_log, &mut oracle_log);
    }
    let mut grace = grace_cycles(case);
    while grace > 0 && !(noc.is_drained() && oracle.is_drained()) {
        step_both(&mut noc, &mut oracle, &mut noc_log, &mut oracle_log);
        grace -= 1;
    }

    let noc_art = RunArtifacts {
        counters: Counters::from_network(noc.metrics()),
        log: noc_log,
        drained: noc.is_drained(),
    };
    let oracle_art = RunArtifacts {
        counters: *oracle.metrics(),
        log: oracle_log,
        drained: oracle.is_drained(),
    };
    Ok((noc_art, oracle_art))
}

/// Conservation invariants both simulators must satisfy independently.
fn conservation(tag: &str, case: &FuzzCase, a: &RunArtifacts) -> Option<String> {
    // No packet id is ever delivered twice.
    let mut ids: Vec<u64> = a.log.iter().map(|(p, _)| p.id).collect();
    ids.sort_unstable();
    if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
        return Some(format!("{tag}: packet id {} delivered twice", w[0]));
    }
    let c = &a.counters;
    if a.drained {
        let uses_handshake = case.scheme.uses_handshake();
        if uses_handshake && case.config().recovery.enabled {
            // Recovery gives every packet a fate: delivered, abandoned, or
            // both (accepted and ejected, but every ACK was lost until the
            // retry budget ran out). Never neither.
            if c.delivered > c.generated {
                return Some(format!(
                    "{tag}: delivered {} exceeds generated {}",
                    c.delivered, c.generated
                ));
            }
            if c.delivered + c.abandoned < c.generated {
                return Some(format!(
                    "{tag}: drained but delivered {} + abandoned {} < generated {}",
                    c.delivered, c.abandoned, c.generated
                ));
            }
        } else if c.delivered + c.faults_data_lost + c.faults_data_corrupt != c.generated {
            // Without recovery each lost/corrupt flit is one packet gone.
            return Some(format!(
                "{tag}: drained but delivered {} + lost {} + corrupt {} != generated {}",
                c.delivered, c.faults_data_lost, c.faults_data_corrupt, c.generated
            ));
        }
        if !case.faults.enabled() && c.delivered != c.generated {
            return Some(format!(
                "{tag}: fault-free drained run delivered {} of {} generated",
                c.delivered, c.generated
            ));
        }
    }
    None
}

/// Run `case` on both simulators and report the first divergence, if any.
///
/// Returns `None` when the simulators agree on every observable *and* both
/// satisfy the conservation invariants; otherwise a human-readable
/// description of the first mismatch. An invalid configuration is treated
/// as agreement (shrink transforms that leave the valid region are simply
/// rejected).
pub fn check_case(case: &FuzzCase) -> Option<String> {
    let (noc, oracle) = match run_pair(case) {
        Ok(pair) => pair,
        Err(_) => return None,
    };
    let diffs = noc.counters.diff(&oracle.counters);
    if !diffs.is_empty() {
        let rendered: Vec<String> = diffs
            .iter()
            .map(|(name, a, b)| format!("{name}: noc={a} oracle={b}"))
            .collect();
        return Some(format!("counter mismatch: {}", rendered.join(", ")));
    }
    if noc.log.len() != oracle.log.len() {
        return Some(format!(
            "ejection log length mismatch: noc={} oracle={}",
            noc.log.len(),
            oracle.log.len()
        ));
    }
    for (i, (a, b)) in noc.log.iter().zip(oracle.log.iter()).enumerate() {
        if a != b {
            return Some(format!(
                "ejection log diverges at entry {i}: noc={a:?} oracle={b:?}"
            ));
        }
    }
    if noc.drained != oracle.drained {
        return Some(format!(
            "drain mismatch: noc={} oracle={}",
            noc.drained, oracle.drained
        ));
    }
    conservation("noc", case, &noc).or_else(|| conservation("oracle", case, &oracle))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::generate_case;
    use pnoc_noc::Scheme;

    /// A handshake case with recovery armed under heavy ACK loss, so
    /// timeouts retransmit packets the home has already accepted.
    fn ack_loss_case(sabotage: bool) -> FuzzCase {
        let mut c = generate_case(0xD1FF, 1);
        c.scheme = Scheme::Dhs { setaside: 2 };
        c.faults.ack_loss = 0.05;
        c.faults.max_ack_faults = u64::MAX;
        c.rate = 0.2;
        c.sabotage = sabotage;
        c
    }

    #[test]
    fn disabled_duplicate_suppression_is_detected() {
        let msg = check_case(&ack_loss_case(true)).expect("the planted bug must diverge");
        assert!(msg.contains("duplicates_suppressed"), "{msg}");
        assert_eq!(check_case(&ack_loss_case(false)), None);
    }
}
