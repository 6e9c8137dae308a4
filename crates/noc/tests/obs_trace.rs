//! Integration tests for run-time observation: the event trace must agree
//! with the simulator's own counters, and attaching observability must
//! never change what the simulation computes. Every run here also carries
//! the invariant auditor.

use pnoc_noc::network::Network;
use pnoc_noc::sources::{SyntheticSource, TRAFFIC_SEED_XOR};
use pnoc_noc::{NetworkConfig, Scheme};
use pnoc_obs::EventKind;
use pnoc_sim::RunPlan;
use pnoc_trace::{TraceMeta, TraceRecorder, TraceWriter};
use pnoc_traffic::pattern::TrafficPattern;

fn source_for(cfg: &NetworkConfig, rate: f64) -> SyntheticSource {
    SyntheticSource::new(
        TrafficPattern::UniformRandom,
        rate,
        cfg.nodes,
        cfg.cores_per_node,
        cfg.seed ^ TRAFFIC_SEED_XOR,
    )
}

fn count(net: &Network, kind: EventKind) -> u64 {
    net.trace()
        .expect("trace attached")
        .iter()
        .filter(|e| e.kind == kind)
        .count() as u64
}

/// With a trace large enough to hold every event, per-kind event counts
/// must equal the corresponding metrics counters exactly.
#[test]
fn event_counts_match_metrics_counters() {
    for scheme in [
        Scheme::TokenChannel,
        Scheme::TokenSlot,
        Scheme::Ghs { setaside: 0 },
        Scheme::Dhs { setaside: 2 },
    ] {
        let cfg = NetworkConfig::small(scheme);
        let mut net = Network::new(cfg).unwrap();
        net.attach_auditor();
        net.attach_trace(1 << 20);
        let mut src = source_for(&cfg, 0.05);
        net.run_open_loop(&mut src, RunPlan::quick());
        let m = net.metrics();
        assert_eq!(
            net.trace().unwrap().dropped(),
            0,
            "{scheme:?}: trace must be large enough for an exact count check"
        );
        assert_eq!(count(&net, EventKind::Inject), m.generated, "{scheme:?}");
        assert_eq!(
            count(&net, EventKind::Send) + count(&net, EventKind::Retransmit),
            m.sends,
            "{scheme:?}"
        );
        assert_eq!(count(&net, EventKind::Arrival), m.arrivals, "{scheme:?}");
        assert_eq!(count(&net, EventKind::Eject), m.delivered, "{scheme:?}");
        assert!(
            count(&net, EventKind::TokenGrant) > 0,
            "{scheme:?}: arbitration must be visible in the trace"
        );
    }
}

/// Attaching the trace, the sampler, the invariant auditor or an injection
/// recorder must not perturb the simulation: the run summary is
/// byte-identical with and without them.
#[test]
fn observation_does_not_feed_back() {
    let cfg = NetworkConfig::small(Scheme::Dhs { setaside: 2 });
    let plan = RunPlan::quick();
    let run = |observe: &dyn Fn(&mut Network)| {
        let mut net = Network::new(cfg).unwrap();
        observe(&mut net);
        let mut src = source_for(&cfg, 0.08);
        let summary = net.run_open_loop(&mut src, plan);
        (serde_json::to_string(&summary).unwrap(), net)
    };
    let (plain, _) = run(&|_| {});
    let (observed, _) = run(&|net| {
        net.attach_trace(4096);
        net.attach_sampler(8);
        net.attach_auditor();
    });
    assert_eq!(plain, observed, "observation changed the simulation");

    let (recorded, mut net) = run(&|net| {
        let meta = TraceMeta::new(
            "feedback",
            cfg.cores(),
            cfg.nodes,
            plan.warmup + plan.measure,
        );
        let writer = TraceWriter::new(Vec::new(), meta).unwrap();
        net.attach_recorder(Box::new(TraceRecorder::new(writer)));
    });
    assert_eq!(plain, recorded, "recording changed the simulation");
    let recorder = net
        .detach_recorder()
        .expect("recorder still attached")
        .into_any()
        .downcast::<TraceRecorder<Vec<u8>>>()
        .expect("the attached TraceRecorder");
    assert_eq!(recorder.recorded(), net.metrics().generated);
    recorder.finish().expect("stream closes cleanly");
}

/// The trace itself is deterministic: two identical runs produce identical
/// event streams and occupancy series.
#[test]
fn trace_and_samples_are_deterministic() {
    let cfg = NetworkConfig::small(Scheme::Ghs { setaside: 0 });
    let run = || {
        let mut net = Network::new(cfg).unwrap();
        net.attach_auditor();
        net.attach_trace(1 << 16);
        net.attach_sampler(4);
        let mut src = source_for(&cfg, 0.06);
        net.run_open_loop(&mut src, RunPlan::quick());
        (
            net.trace().unwrap().to_csv(),
            net.sampler().unwrap().to_csv(),
        )
    };
    assert_eq!(run(), run());
}

/// Lifecycle sanity on a faulty run: recovery-related events only appear
/// when faults are enabled, and every NACK/timeout is visible.
#[test]
fn fault_events_surface_in_the_trace() {
    let mut cfg = NetworkConfig::small(Scheme::Dhs { setaside: 2 });
    cfg.faults = pnoc_faults::FaultConfig::uniform(5e-4);
    cfg.recovery = pnoc_faults::RecoveryConfig::for_ring(cfg.ring_segments);
    let mut net = Network::new(cfg).unwrap();
    net.attach_auditor();
    net.attach_trace(1 << 20);
    let mut src = source_for(&cfg, 0.05);
    net.run_open_loop(&mut src, RunPlan::quick());
    let m = net.metrics();
    assert_eq!(count(&net, EventKind::DataLost), m.faults_data_lost);
    assert_eq!(count(&net, EventKind::DataCorrupt), m.faults_data_corrupt);
    assert_eq!(count(&net, EventKind::AckLost), m.faults_acks_lost);
    assert!(
        m.faults_data_lost + m.faults_data_corrupt + m.faults_acks_lost > 0,
        "fault rate too low to exercise the trace"
    );
}
