//! The shipped model-checking matrix: every scheme, two topologies, and
//! deterministic fault schedules, run through [`crate::checker::check`].
//!
//! Fault schedules are exact, not sampled: a probability-1.0 fault process
//! under a finite budget (`max_data_faults` / `max_ack_faults`) never
//! draws from the RNG, so the checker explores *the* run in which exactly
//! `budget` faults hit at the earliest opportunities — the worst case the
//! recovery machinery must survive. Token-loss faults are excluded here:
//! they cannot be budgeted per-event, and a rate-1.0 schedule would
//! destroy every regenerated token forever, which is not a liveness
//! property any scheme claims to satisfy.

use crate::checker::{check, CheckConfig, CheckOutcome};
use pnoc_noc::{ChannelModel, FaultConfig, NetworkConfig, Scheme};
use std::fmt::Write as _;

/// Which fault schedule a scenario runs under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSchedule {
    /// No faults.
    None,
    /// Exactly one data flit destroyed, at the earliest opportunity.
    OneDataLoss,
    /// Exactly one ACK/NACK destroyed, at the earliest opportunity.
    OneAckLoss,
}

impl FaultSchedule {
    fn label(self) -> &'static str {
        match self {
            FaultSchedule::None => "no faults",
            FaultSchedule::OneDataLoss => "1 data loss",
            FaultSchedule::OneAckLoss => "1 ack loss",
        }
    }

    fn config(self) -> FaultConfig {
        let mut f = FaultConfig::none();
        match self {
            FaultSchedule::None => {}
            FaultSchedule::OneDataLoss => {
                f.data_loss = 1.0;
                f.max_data_faults = 1;
            }
            FaultSchedule::OneAckLoss => {
                f.ack_loss = 1.0;
                f.max_ack_faults = 1;
            }
        }
        f
    }
}

/// One entry of the matrix.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scheme under check.
    pub scheme: Scheme,
    /// Nodes (== ring segments) of the tiny configuration.
    pub nodes: usize,
    /// Active senders (node ids).
    pub senders: Vec<usize>,
    /// Packets each sender injects.
    pub packets_each: u32,
    /// Fault schedule.
    pub faults: FaultSchedule,
}

impl Scenario {
    /// Human-readable label.
    pub fn label(&self) -> String {
        format!(
            "{:<16} {} nodes, {} sender(s) x {} pkt(s), {}",
            self.scheme.label(),
            self.nodes,
            self.senders.len(),
            self.packets_each,
            self.faults.label()
        )
    }

    fn network_config(&self) -> NetworkConfig {
        let mut cfg = NetworkConfig::paper_default(self.scheme);
        cfg.nodes = self.nodes;
        cfg.cores_per_node = 2;
        cfg.ring_segments = self.nodes;
        cfg.input_buffer = 2;
        cfg.router_latency = 1;
        if self.faults != FaultSchedule::None {
            // with_faults arms timeout/retransmit recovery on handshake
            // schemes; credit schemes run the schedule unprotected.
            cfg = cfg.with_faults(self.faults.config());
        }
        cfg
    }

    /// Model-check this scenario: build its [`ChannelModel`] over the
    /// concrete channel pairing the network runs for the scheme (through
    /// [`pnoc_noc::with_scheme!`]) and explore it under `cfg`.
    pub fn check(&self, cfg: &CheckConfig) -> CheckOutcome {
        self.explore(cfg, false)
    }

    /// [`Scenario::check`], optionally with the intentional
    /// duplicate-suppression bug armed
    /// ([`pnoc_noc::channel::Channel::disable_duplicate_suppression`]).
    fn explore(&self, cfg: &CheckConfig, sabotage: bool) -> CheckOutcome {
        let net = self.network_config();
        pnoc_noc::with_scheme!(&net, |arbiter, flow| {
            let mut model =
                ChannelModel::new(&net, arbiter, flow, &self.senders, self.packets_each);
            if sabotage {
                model.channel_mut().disable_duplicate_suppression();
            }
            check(&model, cfg)
        })
    }
}

/// The shipped matrix: for each of the seven schemes, a 2-node deep
/// workload (one sender, 3 packets — exercises queue depth, setaside and
/// retransmission) and a 4-node wide workload (three senders, 1 packet
/// each — exercises arbitration interleavings, 2^3 injection subsets per
/// cycle); fault schedules on the 2-node shape, data loss for every
/// scheme, ACK loss for the handshake schemes that have ACKs to lose.
pub fn matrix() -> Vec<Scenario> {
    let mut out = Vec::new();
    for scheme in Scheme::paper_set(1) {
        out.push(Scenario {
            scheme,
            nodes: 2,
            senders: vec![1],
            packets_each: 3,
            faults: FaultSchedule::None,
        });
        out.push(Scenario {
            scheme,
            nodes: 4,
            senders: vec![1, 2, 3],
            packets_each: 1,
            faults: FaultSchedule::None,
        });
        out.push(Scenario {
            scheme,
            nodes: 2,
            senders: vec![1],
            packets_each: 2,
            faults: FaultSchedule::OneDataLoss,
        });
        if scheme.uses_handshake() {
            out.push(Scenario {
                scheme,
                nodes: 2,
                senders: vec![1],
                packets_each: 2,
                faults: FaultSchedule::OneAckLoss,
            });
        }
    }
    out
}

/// Result of one scenario.
#[derive(Debug)]
pub struct ScenarioResult {
    /// The scenario.
    pub scenario: Scenario,
    /// Checker outcome.
    pub outcome: CheckOutcome,
}

/// Run the full matrix. Returns results in matrix order.
pub fn run_matrix(cfg: &CheckConfig) -> Vec<ScenarioResult> {
    matrix()
        .into_iter()
        .map(|scenario| {
            let outcome = scenario.check(cfg);
            ScenarioResult { scenario, outcome }
        })
        .collect()
}

/// Render matrix results; returns `(text, all_ok)`.
pub fn render_results(results: &[ScenarioResult]) -> (String, bool) {
    let mut s = String::new();
    let mut ok = true;
    for r in results {
        match &r.outcome {
            CheckOutcome::Verified(rep) => {
                let _ = writeln!(
                    s,
                    "  PASS  {}  [{} states, {} transitions, drain<={}, {} delivered]",
                    r.scenario.label(),
                    rep.states,
                    rep.transitions,
                    rep.max_drain_steps,
                    rep.max_delivered
                );
            }
            CheckOutcome::Truncated(rep) => {
                ok = false;
                let _ = writeln!(
                    s,
                    "  FAIL  {}  state space did not close within {} states",
                    r.scenario.label(),
                    rep.states
                );
            }
            CheckOutcome::Violated(cx) => {
                ok = false;
                let _ = writeln!(s, "  FAIL  {}", r.scenario.label());
                for line in cx.render().lines() {
                    let _ = writeln!(s, "    {line}");
                }
            }
        }
    }
    (s, ok)
}

/// Self-test: prove the checker can produce a counterexample. Arms the
/// intentional bug (duplicate suppression disabled via
/// [`pnoc_noc::channel::Channel::disable_duplicate_suppression`]) under a
/// lost-ACK schedule: the home delivers the packet, the ACK dies, recovery
/// retransmits, and the sabotaged home delivers it again. The checker must
/// return a duplicate-delivery violation with a concrete schedule.
pub fn duplicate_bug_counterexample() -> CheckOutcome {
    let scenario = Scenario {
        scheme: Scheme::Dhs { setaside: 1 },
        nodes: 2,
        senders: vec![1],
        packets_each: 1,
        faults: FaultSchedule::OneAckLoss,
    };
    scenario.explore(&CheckConfig::default(), true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sabotaged_model_yields_duplicate_delivery_counterexample() {
        match duplicate_bug_counterexample() {
            CheckOutcome::Violated(cx) => {
                assert!(
                    cx.error.contains("delivered twice"),
                    "expected a duplicate-delivery violation, got: {}",
                    cx.error
                );
                assert!(!cx.steps.is_empty(), "trace must show the schedule");
            }
            other => panic!("sabotaged model must be caught, got {other:?}"),
        }
    }

    #[test]
    fn unsabotaged_ack_loss_scenario_verifies() {
        let scenario = Scenario {
            scheme: Scheme::Dhs { setaside: 1 },
            nodes: 2,
            senders: vec![1],
            packets_each: 1,
            faults: FaultSchedule::OneAckLoss,
        };
        let outcome = scenario.check(&CheckConfig::default());
        assert!(
            outcome.ok(),
            "duplicate suppression must survive: {outcome:?}"
        );
    }

    #[test]
    fn token_channel_without_faults_verifies() {
        let scenario = Scenario {
            scheme: Scheme::TokenChannel,
            nodes: 2,
            senders: vec![1],
            packets_each: 2,
            faults: FaultSchedule::None,
        };
        assert!(scenario.check(&CheckConfig::default()).ok());
    }
}
