//! Turning passes into named metrics, and printing them.

use crate::common::{Pass, TracedPass};
use crate::prof::Layer;
use crate::stats::{self, median, percentile, Tally};
use std::collections::BTreeMap;

/// End-to-end metrics, reported with `--trace 0` on every workload:
/// (name, unit). All host time unless the name starts with `sim_`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("sim_cycles_per_s", "cycles/s"),
    ("ns_per_packet", "ns"),
    ("jobs_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p95", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_avg_latency_cycles", "cycles"),
    ("sim_delivered_packets", "count"),
];

/// Per-layer metrics, reported with `--trace 1` on every workload; a layer
/// a workload bypasses reads 0. `<span>_ns` is summed span time per pass.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("noc.new_ns", "ns"),
    ("noc.step_ns", "ns"),
    ("noc.steps", "count"),
    ("noc.step_ns_p50", "ns"),
    ("noc.step_ns_p999", "ns"),
    ("noc.idle_step_ns", "ns"),
    ("noc.inject_ns", "ns"),
    ("noc.injected", "count"),
    ("noc.drain_steps", "count"),
    ("noc.drain_check_ns", "ns"),
    ("noc.summary_ns", "ns"),
    ("noc.sends", "count"),
    ("noc.arrivals", "count"),
    ("noc.drops", "count"),
    ("noc.retransmissions", "count"),
    ("noc.circulations", "count"),
    ("noc.delivered", "count"),
    ("noc.delivered_per_send", "ratio"),
    ("traffic.new_ns", "ns"),
    ("traffic.generate_ns", "ns"),
    ("traffic.generate_calls", "count"),
    ("traffic.requests", "count"),
    ("cmp.new_ns", "ns"),
    ("cmp.core_tick_ns", "ns"),
    ("cmp.net_step_ns", "ns"),
    ("cmp.delivery_ns", "ns"),
    ("cmp.bank_tick_ns", "ns"),
    ("cmp.local_ns", "ns"),
    ("cmp.requests", "count"),
    ("cmp.replies", "count"),
    ("cmp.local_completions", "count"),
    ("cmp.stall_frac", "ratio"),
    ("cmp.ipc", "instr/cycle"),
    ("trace.write_ns", "ns"),
    ("trace.read_ns", "ns"),
    ("trace.events", "count"),
    ("trace.bytes_per_event", "B/event"),
    ("trace.replay_open_ns", "ns"),
    ("trace.replay_generate_ns", "ns"),
    ("trace.replay_generate_calls", "count"),
    ("trace.replay_requests", "count"),
    ("trace.replay_step_ns", "ns"),
    ("fleet.spinup_ns", "ns"),
    ("fleet.journal_open_ns", "ns"),
    ("fleet.job_ns", "ns"),
    ("fleet.run_job_ns", "ns"),
    ("fleet.lock_wait_ns", "ns"),
    ("fleet.fold_ns", "ns"),
    ("fleet.journal_append_ns", "ns"),
    ("fleet.journal_appends", "count"),
    ("fleet.journal_bytes", "B"),
    ("fleet.journal_wall_frac", "ratio"),
    ("fleet.resume_ns", "ns"),
    ("fleet.report_ns", "ns"),
    ("fleet.jobs", "count"),
    ("fleet.worker_idle_frac", "ratio"),
    ("meta.attributed_frac", "ratio"),
    ("meta.trace_overhead_frac", "ratio"),
    ("meta.traced_pass_s", "s"),
    ("meta.untraced_pass_s", "s"),
    ("meta.traced_passes", "count"),
];

/// Attribution below this share of traced wall time is printed as a warning.
pub const ATTRIBUTION_TARGET: f64 = 0.95;

/// Everything a report needs about one run.
pub struct Run<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub threads: usize,
    pub passes: &'a [Pass],
    pub tally: Tally,
}

/// Named metric values plus the notes printed beside them.
pub struct Metrics {
    /// (name, unit, value) in report order; the JSON line carries these.
    pub values: Vec<(&'static str, &'static str, f64)>,
    /// Printed-only lines: workload-specific metrics, sample counts and
    /// warnings.
    pub notes: Vec<String>,
}

fn med(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// Peak resident memory of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of the untraced passes.
pub fn end_to_end(run: &Run) -> Metrics {
    let ps = run.passes;
    let first = &ps[0];
    let mut job_ms: Vec<f64> = ps.iter().flat_map(|p| p.job_ms.iter().copied()).collect();
    job_ms.sort_by(f64::total_cmp);
    let n = job_ms.len();
    let mut notes = vec![format!(
        "job_ms: {n} samples; {} above p95; highest percentile with >= {} above: {}",
        stats::samples_above(n, 95.0),
        stats::TAIL_SAMPLES,
        stats::tail_percentile(n, &[50.0, 75.0, 90.0, 95.0, 99.0, 99.9])
            .map_or_else(|| "none".into(), |p| format!("p{p}")),
    )];
    let mut extra: BTreeMap<&str, (&str, Vec<f64>)> = BTreeMap::new();
    for p in ps {
        for &(name, unit, v) in &p.extra {
            extra.entry(name).or_insert((unit, Vec::new())).1.push(v);
        }
    }
    for (name, (unit, vs)) in &extra {
        notes.push(format!(
            "{name} = {} {unit} (median of {} passes)",
            median(vs),
            vs.len()
        ));
    }
    notes.push(format!(
        "fail_frac = {} ({} failed / {} attempted output checks)",
        run.tally.fail_frac(),
        run.tally.failed,
        run.tally.attempted
    ));
    // Rates are total work over total time: host noise makes per-pass
    // times bimodal, and the median of a bimodal sample jumps between
    // modes from run to run.
    let sum = |f: fn(&Pass) -> f64| ps.iter().map(f).sum::<f64>();
    let wall = sum(|p| p.wall_s);
    let values = vec![
        sum(|p| p.sim_cycles as f64) / wall,
        wall * 1e9 / sum(|p| p.delivered as f64).max(1.0),
        sum(|p| p.jobs as f64) / wall,
        percentile(&job_ms, 50.0),
        percentile(&job_ms, 95.0),
        med(ps, |p| p.setup_s),
        peak_rss_mb(),
        first.latency_weighted / first.delivered.max(1) as f64,
        first.delivered as f64,
    ];
    Metrics {
        values: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect(),
        notes,
    }
}

/// The per-layer metrics of the traced passes, with the idle-step
/// calibration and the traced/untraced comparison.
pub fn per_layer(run: &Run, traced: &[TracedPass], idle_step_ns: f64) -> Metrics {
    let mut m: BTreeMap<&str, f64> = BTreeMap::new();
    let medt = |f: &dyn Fn(&TracedPass) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let span_metric = |l: Layer| -> &'static str {
        PER_LAYER
            .iter()
            .map(|&(n, _)| n)
            .find(|n| n.strip_suffix("_ns") == Some(l.name()))
            .expect("every layer has a per-layer metric")
    };
    for l in Layer::ALL {
        m.insert(span_metric(l), medt(&|t| t.prof.total_of(l) as f64));
    }
    let names: Vec<&'static str> = traced
        .iter()
        .flat_map(|t| t.counters.keys().copied())
        .collect();
    for name in names {
        m.insert(
            name,
            medt(&|t| t.counters.get(name).copied().unwrap_or(0.0)),
        );
    }
    let steps = medt(&|t| t.prof.calls[Layer::NocStep as usize] as f64);
    m.insert("noc.steps", steps);
    let mut step_ns: Vec<f64> = traced
        .iter()
        .flat_map(|t| t.prof.step_ns.iter().map(|&d| f64::from(d)))
        .collect();
    step_ns.sort_by(f64::total_cmp);
    if !step_ns.is_empty() {
        m.insert("noc.step_ns_p50", percentile(&step_ns, 50.0));
        m.insert("noc.step_ns_p999", percentile(&step_ns, 99.9));
    }
    m.insert("noc.idle_step_ns", idle_step_ns);
    let sends = m.get("noc.sends").copied().unwrap_or(0.0);
    if sends > 0.0 {
        m.insert("noc.delivered_per_send", m["noc.delivered"] / sends);
    }
    let step = m["noc.step_ns"];
    match run.workload {
        "cmp_closed_loop" => m.insert("cmp.net_step_ns", step),
        "trace_replay" => m.insert("trace.replay_step_ns", step),
        _ => None,
    };
    let attributed = medt(&|t| t.prof.attributed_ns() as f64 / t.capacity_ns);
    let traced_s = medt(&|t| t.pass.setup_s + t.pass.wall_s);
    let untraced_s = med(run.passes, |p| p.setup_s + p.wall_s);
    m.insert("meta.attributed_frac", attributed);
    m.insert("meta.trace_overhead_frac", traced_s / untraced_s - 1.0);
    m.insert("meta.traced_pass_s", traced_s);
    m.insert("meta.untraced_pass_s", untraced_s);
    m.insert("meta.traced_passes", traced.len() as f64);

    let mut notes = vec![format!(
        "{} noc.step samples; {} above p99.9",
        step_ns.len(),
        if step_ns.is_empty() {
            0
        } else {
            stats::samples_above(step_ns.len(), 99.9)
        }
    )];
    let mut shares: Vec<(f64, &str)> = Layer::ALL
        .iter()
        .map(|&l| {
            (
                medt(&|t| t.prof.self_of(l) as f64 / t.capacity_ns),
                l.name(),
            )
        })
        .filter(|&(s, _)| s > 0.0)
        .collect();
    shares.sort_by(|a, b| b.0.total_cmp(&a.0));
    for (share, name) in shares {
        notes.push(format!(
            "self time {name:<24} {:6.2}% of traced wall",
            share * 100.0
        ));
    }
    if attributed < ATTRIBUTION_TARGET {
        let w = format!(
            "WARNING: attributed_frac {attributed:.3} is below the {ATTRIBUTION_TARGET} target"
        );
        eprintln!("{w}");
        notes.push(w);
    }
    notes.push(format!(
        "fail_frac = {} ({} failed / {} attempted output checks)",
        run.tally.fail_frac(),
        run.tally.failed,
        run.tally.attempted
    ));
    Metrics {
        values: PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, m.get(name).copied().unwrap_or(0.0)))
            .collect(),
        notes,
    }
}

/// Render a metric value as a JSON number (non-finite values become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn json_line(tally: Tally, values: &[(&str, &str, f64)]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, unit, v)| {
            assert!(stats::valid_metric_name(name) && stats::valid_unit(unit));
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && values.iter().all(|v| v.2.is_finite()),
        tally.attempted.max(1),
        tally.failed,
        metrics.join(", ")
    )
}

/// Print the human-readable report, then the JSON result line last.
pub fn print(run: &Run, metrics: &Metrics) {
    println!(
        "workload {}  seed {}  threads {}  timed passes {}",
        run.workload,
        run.seed,
        run.threads,
        run.passes.len()
    );
    for &(name, unit, v) in &metrics.values {
        println!("  {name:<28} {v:>18.4} {unit}");
    }
    for note in &metrics.notes {
        println!("  {note}");
    }
    println!("{}", json_line(run.tally, &metrics.values));
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn entries<'a>(doc: &'a Value, key: &str) -> Vec<(&'a str, &'a str)> {
        doc.get(key)
            .and_then(Value::as_seq)
            .expect("BENCHMARK.json lists metrics")
            .iter()
            .map(|e| {
                let s = |k| e.get(k).and_then(Value::as_str).expect("name and unit");
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let doc: Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        assert_eq!(entries(&doc, "end_to_end"), END_TO_END.to_vec());
        assert_eq!(entries(&doc, "per_layer"), PER_LAYER.to_vec());
    }

    #[test]
    fn metric_names_and_units_are_valid_and_unique() {
        let all: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        for (i, &(name, unit)) in all.iter().enumerate() {
            assert!(stats::valid_metric_name(name), "{name}");
            assert!(stats::valid_unit(unit), "{unit}");
            assert!(all[..i].iter().all(|&(n, _)| n != name), "duplicate {name}");
        }
    }

    #[test]
    fn json_line_carries_the_tally() {
        let t = Tally {
            attempted: 4,
            failed: 1,
        };
        let line = json_line(t, &[("setup_s", "s", 0.5), ("x", "ns", f64::NAN)]);
        let v: Value = serde_json::from_str(&line).expect("result line is JSON");
        assert_eq!(
            v.get("correct").map(|c| format!("{c:?}")),
            Some("Bool(false)".into())
        );
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(4.0));
        assert_eq!(v.get("failed").and_then(Value::as_f64), Some(1.0));
        let setup = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(0.5));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    }
}
