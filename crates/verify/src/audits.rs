//! Runtime invariant audit of full `Network` simulations.
//!
//! Each matrix row builds a small ring, attaches pnoc-noc's cycle-level
//! invariant auditor ([`Network::attach_auditor`]) and runs it through the
//! shipped open-loop driver ([`Network::run_open_loop`]), so the CI gate
//! checks the conservation laws, the starvation audit and the channels'
//! bit-plane invariants on the code every harness runs — every scheme, with
//! and without fault injection, on real mixed traffic. A violation panics
//! inside `step`; the panic is caught and reported as a `FAIL` row.

use pnoc_noc::{
    AdmissionPolicy, ClassedSource, FaultConfig, Network, NetworkConfig, Scheme, MAX_CLASSES,
};
use pnoc_sim::RunPlan;
use pnoc_traffic::classes::TenantMixKind;
use pnoc_traffic::pattern::TrafficPattern;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One audited run configuration.
#[derive(Debug, Clone)]
pub struct AuditRun {
    /// Scheme under audit.
    pub scheme: Scheme,
    /// Uniform fault rate (0.0 = fault-free).
    pub fault_rate: f64,
    /// Injection rate, packets/cycle/core.
    pub rate: f64,
    /// Cycles of active injection.
    pub warm_cycles: u64,
    /// Additional cycles to drain (fault-free runs must fully drain).
    pub drain_cycles: u64,
    /// Whether per-class admission control is armed (and with it the
    /// starvation audit).
    pub admission: bool,
    /// Tenant mix driving the run (`SingleClass` = the classic audit).
    pub mix: TenantMixKind,
}

/// Result of one audited run.
#[derive(Debug)]
pub struct AuditResult {
    /// The run.
    pub run: AuditRun,
    /// Packets delivered.
    pub delivered: u64,
    /// First invariant violation, if any.
    pub violation: Option<String>,
    /// Whether the network fully drained after injection stopped
    /// (informational under faults: unrecovered schemes legitimately wedge).
    pub drained: bool,
}

/// The shipped audit matrix: all seven schemes fault-free at moderate
/// load, plus all seven under 1% uniform faults (handshake schemes with
/// recovery armed, credit schemes running unprotected — exactly the
/// regime the reliability study simulates), plus all seven multi-tenant
/// with admission control armed — which additionally turns on the
/// no-class-starvation audit.
pub fn matrix() -> Vec<AuditRun> {
    let mut out = Vec::new();
    for &fault_rate in &[0.0, 0.01] {
        for scheme in Scheme::paper_set(1) {
            out.push(AuditRun {
                scheme,
                fault_rate,
                rate: 0.04,
                warm_cycles: 1_500,
                drain_cycles: 3_000,
                admission: false,
                mix: TenantMixKind::SingleClass,
            });
        }
    }
    let mixes = [
        TenantMixKind::ElephantMice,
        TenantMixKind::BurstyAdversary,
        TenantMixKind::HotspotTenant,
    ];
    for (i, scheme) in Scheme::paper_set(1).into_iter().enumerate() {
        out.push(AuditRun {
            scheme,
            fault_rate: 0.0,
            rate: 0.04,
            warm_cycles: 1_500,
            drain_cycles: 3_000,
            admission: true,
            mix: mixes[i % mixes.len()],
        });
    }
    out
}

/// Drive one run through the open-loop driver with the auditor attached:
/// `warm_cycles` of injection, then `drain_cycles` (plus the network's own
/// drain grace) to drain.
pub fn run_audit(run: &AuditRun) -> AuditResult {
    let mut cfg = NetworkConfig::paper_default(run.scheme);
    cfg.nodes = 8;
    cfg.cores_per_node = 2;
    cfg.ring_segments = 8;
    cfg.input_buffer = 4;
    if run.fault_rate > 0.0 {
        cfg = cfg.with_faults(FaultConfig::uniform(run.fault_rate));
    }
    if run.admission {
        // Tight-but-live buckets: every class refills ≥ 1 per period, so
        // the starvation audit must stay quiet no matter the mix.
        cfg.admission = AdmissionPolicy::TokenBucket {
            period: 4,
            refill: [1; MAX_CLASSES],
            burst: [2; MAX_CLASSES],
        };
    }
    let mut net = Network::new(cfg).expect("audit config must validate");
    net.attach_auditor();
    let mut source = ClassedSource::new(
        run.mix,
        run.rate,
        TrafficPattern::UniformRandom,
        cfg.nodes,
        cfg.cores_per_node,
        cfg.seed ^ 0xA0D1_7000,
    );
    let plan = RunPlan::new(0, run.warm_cycles, run.drain_cycles);
    let violation = catch_unwind(AssertUnwindSafe(|| {
        net.run_open_loop(&mut source, plan);
    }))
    .err()
    .map(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "non-string panic".to_owned())
    });
    AuditResult {
        run: run.clone(),
        delivered: net.metrics().delivered,
        violation,
        drained: net.is_drained(),
    }
}

/// Run the full audit matrix; returns `(text, all_ok)`.
pub fn run_matrix() -> (String, bool) {
    let mut s = String::new();
    let mut ok = true;
    for run in matrix() {
        let res = run_audit(&run);
        let status = match &res.violation {
            None => "PASS",
            Some(_) => {
                ok = false;
                "FAIL"
            }
        };
        let _ = writeln!(
            s,
            "  {status}  {:<16} faults {:.2}  mix {}{}  [{} delivered, drained: {}]",
            res.run.scheme.label(),
            res.run.fault_rate,
            res.run.mix.label(),
            if res.run.admission { "+qos" } else { "" },
            res.delivered,
            res.drained
        );
        if let Some(why) = &res.violation {
            ok = false;
            let _ = writeln!(s, "        {why}");
        }
        // Fault-free runs must drain completely once injection stops; a
        // wedged fault-free network is a liveness bug the checker's tiny
        // configs might not reach.
        if res.run.fault_rate == 0.0 && !res.drained {
            ok = false;
            let _ = writeln!(s, "        fault-free run failed to drain");
        }
    }
    (s, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_dhs_audit_passes_and_drains() {
        let res = run_audit(&AuditRun {
            scheme: Scheme::Dhs { setaside: 1 },
            fault_rate: 0.0,
            rate: 0.04,
            warm_cycles: 400,
            drain_cycles: 1_000,
            admission: false,
            mix: TenantMixKind::SingleClass,
        });
        assert!(res.violation.is_none(), "{:?}", res.violation);
        assert!(res.drained);
        assert!(res.delivered > 0);
    }

    #[test]
    fn admitted_tenant_mix_audit_passes_and_drains() {
        // QoS on: the conservation laws and the starvation audit both run,
        // and the network must still drain (refill >= 1 per class per
        // period guarantees liveness).
        let res = run_audit(&AuditRun {
            scheme: Scheme::Dhs { setaside: 1 },
            fault_rate: 0.0,
            rate: 0.04,
            warm_cycles: 600,
            drain_cycles: 2_000,
            admission: true,
            mix: TenantMixKind::ElephantMice,
        });
        assert!(res.violation.is_none(), "{:?}", res.violation);
        assert!(res.drained);
        assert!(res.delivered > 0);
    }

    #[test]
    fn faulted_token_channel_audit_passes() {
        let res = run_audit(&AuditRun {
            scheme: Scheme::TokenChannel,
            fault_rate: 0.01,
            rate: 0.04,
            warm_cycles: 400,
            drain_cycles: 1_000,
            admission: false,
            mix: TenantMixKind::SingleClass,
        });
        assert!(res.violation.is_none(), "{:?}", res.violation);
    }
}
