//! What every workload returns from one pass, and the pieces the traced
//! drivers share: the instrumented open loop, the `NetworkMetrics` work
//! counters, and the idle-step calibration.

use crate::prof::{Layer, Prof};
use pnoc_noc::{Network, NetworkConfig, NetworkMetrics, RunSummary, TrafficSource};
use pnoc_sim::RunPlan;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer counters of one pass: metric name → value.
pub type Counters = BTreeMap<&'static str, f64>;

/// One pass over a workload: its timings, its deterministic simulated
/// statistics, and its outputs for the correctness checks.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host seconds spent building configs, networks, systems and fleets.
    pub setup_s: f64,
    /// Host seconds of the timed part (after set-up).
    pub wall_s: f64,
    /// Simulated cycles.
    pub sim_cycles: u64,
    /// Measured packets delivered.
    pub delivered: u64,
    /// Σ (mean packet latency × measured packets delivered) over jobs.
    pub latency_weighted: f64,
    /// Simulation jobs run.
    pub jobs: u64,
    /// Host ms per job.
    pub job_ms: Vec<f64>,
    /// Canonical output of every job, in a fixed order: compared across
    /// passes and between the traced and the shipped drivers.
    pub outputs: Vec<String>,
    /// Workload-specific metrics: (name, unit, value).
    pub extra: Vec<(&'static str, &'static str, f64)>,
}

/// One traced pass: the pass itself (its wall includes timer cost), the
/// spans, and the per-layer counters.
#[derive(Debug, Default)]
pub struct TracedPass {
    /// Outputs and simulated statistics of the traced drivers.
    pub pass: Pass,
    /// Closed spans of every thread.
    pub prof: Prof,
    /// Host thread-ns the spans could cover: the wall time for a
    /// single-threaded pass; main-thread time plus workers × batch time
    /// for the fleet.
    pub capacity_ns: f64,
    /// Work counters and derived ratios.
    pub counters: Counters,
}

/// Add `v` to counter `name`.
pub fn bump(c: &mut Counters, name: &'static str, v: f64) {
    *c.entry(name).or_default() += v;
}

/// Accumulate the exact work counters of a finished network.
pub fn add_noc_counters(c: &mut Counters, m: &NetworkMetrics) {
    bump(c, "noc.sends", m.sends as f64);
    bump(c, "noc.arrivals", m.arrivals as f64);
    bump(c, "noc.drops", m.drops as f64);
    bump(c, "noc.retransmissions", m.retransmissions as f64);
    bump(c, "noc.circulations", m.circulations as f64);
    bump(c, "noc.delivered", m.delivered as f64);
}

/// `Network::run_open_loop`, rebuilt from public calls with one span per
/// call per cycle: generate → inject → step over the plan, then the drain
/// grace, then `RunSummary::from_metrics`. Must return a summary identical
/// to the shipped loop's; the caller checks it does.
pub fn traced_open_loop(
    net: &mut Network,
    source: &mut dyn TrafficSource,
    plan: RunPlan,
    generate: Layer,
    prof: &mut Prof,
    c: &mut Counters,
) -> RunSummary {
    let cfg = *net.config();
    let mut buf = Vec::new();
    let (mut calls, mut requests) = (0u64, 0u64);
    for _ in 0..plan.total() {
        let now = net.now();
        if now < plan.warmup + plan.measure && !source.exhausted() {
            buf.clear();
            prof.span(generate, || source.generate(now, &mut buf));
            calls += 1;
            requests += buf.len() as u64;
            let measured = plan.measures(now);
            if !buf.is_empty() {
                prof.enter(Layer::NocInject);
                for &(core, dst, kind, class) in &buf {
                    net.inject_classed(core, dst, kind, 0, class, measured);
                }
                prof.exit();
            }
        }
        prof.step(net);
    }
    // Same bounded grace as the shipped loop.
    let mut grace = if cfg.faults.enabled() {
        200_000
    } else {
        4 * cfg.ring_segments as u64 + 64
    };
    let mut drain_steps = 0u64;
    while grace > 0 && !prof.span(Layer::NocDrainCheck, || net.is_drained()) {
        prof.step(net);
        drain_steps += 1;
        grace -= 1;
    }
    let summary = prof.span(Layer::NocSummary, || {
        let m = net.metrics();
        let offered =
            m.generated_measured as f64 / (plan.measure.max(1) as f64 * cfg.cores() as f64);
        RunSummary::from_metrics(m, &net.service_counts(), plan.measure, cfg.cores(), offered)
    });
    let (gen_calls, gen_requests) = match generate {
        Layer::TrafficGenerate => ("traffic.generate_calls", "traffic.requests"),
        _ => ("trace.replay_generate_calls", "trace.replay_requests"),
    };
    bump(c, gen_calls, calls as f64);
    bump(c, gen_requests, requests as f64);
    bump(c, "noc.injected", net.metrics().generated as f64);
    bump(c, "noc.drain_steps", drain_steps as f64);
    add_noc_counters(c, net.metrics());
    summary
}

/// The fixed per-cycle cost: mean host ns of one `Network::step` on an
/// empty network, over `configs`. Runs on throwaway networks, outside
/// every timed or traced window.
pub fn idle_step_ns(configs: &[NetworkConfig]) -> f64 {
    const WARM: usize = 200;
    const STEPS: usize = 4_000;
    let mut per_step = Vec::with_capacity(configs.len());
    for &cfg in configs {
        let mut net = Network::new(cfg).expect("benchmark configs are valid");
        for _ in 0..WARM {
            net.step();
        }
        let t0 = Instant::now();
        for _ in 0..STEPS {
            net.step();
        }
        per_step.push(t0.elapsed().as_nanos() as f64 / STEPS as f64);
    }
    per_step.iter().sum::<f64>() / per_step.len().max(1) as f64
}

/// Milliseconds elapsed since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}
