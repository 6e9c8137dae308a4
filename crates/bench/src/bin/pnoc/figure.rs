//! `pnoc figure`: every paper-reproduction harness behind one command line.
//!
//! ```text
//! pnoc figure <name> [--quick] [--svg DIR] [--json DIR] [--threads N]
//! ```
//!
//! `<name>` picks a harness from [`HARNESSES`]: the paper's Table I,
//! Figs. 2(b) and 8–12 and the §V-B IPC claim, plus the repo's own
//! ablation, SWMR, mesh, resilience and fairness studies. `--quick` runs
//! the reduced-fidelity pass, `--svg DIR` renders the harness's charts into
//! `DIR/<chart>.svg` and `--json DIR` writes its results to
//! `DIR/<name>.json`. A failed SVG or JSON write names the file.

use std::error::Error;
use std::io;
use std::iter::once;
use std::path::PathBuf;

use pnoc_bench::figures::{
    self, mean_ipc_improvement, mean_latency_reduction, Curve, FAULT_RATES, PAPER_SETASIDE,
    RESILIENCE_LOAD,
};
use pnoc_bench::table::fmt_f64;
use pnoc_bench::{fleet, Fidelity, PlotSpec, Table};
use pnoc_noc::metrics::RunSummary;
use pnoc_noc::{FairnessPolicy, Network, NetworkConfig, Scheme};
use pnoc_sim::RunPlan;
use pnoc_traffic::classes::TenantMixKind;
use pnoc_traffic::pattern::TrafficPattern;
use pnoc_traffic::stats::StatsAccumulator;
use serde::Serialize;

use crate::args::{is_flag, unexpected, Args};

/// One harness: prints its figure to stdout and writes what `--svg` and
/// `--json` ask for.
pub type Harness = fn(&Opts) -> io::Result<()>;

/// Every harness by name, in the order the scripts run them.
const HARNESSES: [(&str, Harness); 13] = [
    ("table1", table1),
    ("fig12", fig12),
    ("fig2b", fig2b),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("ipc", ipc),
    ("ablations", ablations),
    ("swmr", swmr),
    ("mesh_vs_ring", mesh_vs_ring),
    ("fig11", fig11),
    ("resilience", resilience),
    ("fairness", fairness),
];

/// The parsed command line.
#[derive(Debug, Default, PartialEq)]
pub struct Opts {
    /// The harness to run; names its JSON file.
    name: &'static str,
    fidelity: Fidelity,
    svg: Option<PathBuf>,
    json: Option<PathBuf>,
}

impl Opts {
    /// Under `--json DIR`, write `value` to `DIR/<name>.json` and say so.
    fn write_json<T: Serialize>(&self, value: &T) -> io::Result<()> {
        if let Some(dir) = &self.json {
            let path = pnoc_bench::export::write_json(dir, self.name, value)?;
            println!("wrote {}", path.display());
        }
        Ok(())
    }

    /// Under `--svg DIR`, render each chart to `DIR/<chart>.svg` and say so.
    fn write_charts(&self, charts: &[(String, PlotSpec, Vec<Curve>)]) -> io::Result<()> {
        if let Some(dir) = &self.svg {
            for p in pnoc_bench::plot::write_charts(dir, charts)? {
                println!("wrote {}", p.display());
            }
        }
        Ok(())
    }
}

pub fn usage() -> String {
    let names: Vec<&str> = HARNESSES.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: pnoc figure <{}> [--quick] [--svg DIR] [--json DIR] [--threads N]",
        names.join("|")
    )
}

/// Parse the arguments after `figure` into the harness to run and its
/// options.
pub fn parse(args: &mut Args) -> Result<(Harness, Opts), String> {
    let mut opts = Opts::default();
    let mut name = None;
    while let Some(arg) = args.next()? {
        match arg.as_str() {
            "--quick" => opts.fidelity = Fidelity::Quick,
            "--svg" => opts.svg = Some(args.value(&arg)?.into()),
            "--json" => opts.json = Some(args.value(&arg)?.into()),
            _ if name.is_none() && !is_flag(&arg) => name = Some(arg),
            _ => return Err(unexpected(&arg)),
        }
    }
    let name = name.ok_or("missing harness name")?;
    let &(name, harness) = HARNESSES
        .iter()
        .find(|(n, _)| *n == name)
        .ok_or_else(|| format!("unknown harness {name}"))?;
    opts.name = name;
    Ok((harness, opts))
}

pub fn run((harness, opts): (Harness, Opts)) -> Result<(), Box<dyn Error>> {
    Ok(harness(&opts)?)
}

/// Render `header` over one `label, cells…` row per item of `rows`.
fn f64_table(
    header: impl IntoIterator<Item = impl Into<String>>,
    rows: impl IntoIterator<Item = (impl AsRef<str>, Vec<f64>)>,
    precision: usize,
) -> String {
    let mut t = Table::new(header);
    for (label, cells) in rows {
        t.row_f64(label.as_ref(), &cells, precision);
    }
    t.render()
}

/// A latency-vs-load style table: a `label` column, then one column per
/// offered rate of the first curve; each curve's row is `cells(curve)`.
fn curve_table(
    label: &str,
    curves: &[Curve],
    cells: impl Fn(&Curve) -> Vec<f64>,
    precision: usize,
) -> String {
    let rates = curves[0].points.iter().map(|(r, _)| format!("{r}"));
    let rows = curves.iter().map(|c| (&c.label, cells(c)));
    f64_table(once(label.to_string()).chain(rates), rows, precision)
}

/// Table I: optical component budgets for a 64-node network, reproduced
/// exactly (256 data waveguides, 1 token, 0/1 handshake; 1024K–1040K rings).
fn table1(o: &Opts) -> io::Result<()> {
    println!("Table I — component budgets, 64-node network");
    let rows = figures::table1();
    o.write_json(&rows)?;
    let mut t = Table::new([
        "scheme",
        "Data WG",
        "Token WG",
        "Handshake WG",
        "Micro-rings",
    ]);
    for (label, d, tok, h, rings) in rows {
        t.row([label, d.to_string(), tok.to_string(), h.to_string(), rings]);
    }
    println!("{}", t.render());
    println!("(handshake adds 4K rings = 0.4% overhead; circulation adds 16K = 1.5%)");
    Ok(())
}

/// Fig. 12: (a) power breakdown per scheme — laser + ring heating dominate,
/// global arbitration burns more laser power, token slot is cheapest; (b)
/// energy per packet — all schemes similar, circulation adds almost nothing.
fn fig12(o: &Opts) -> io::Result<()> {
    let rows = figures::fig12(o.fidelity);
    o.write_json(&rows)?;

    println!("Fig. 12(a) — total power breakdown (watts)");
    let header = [
        "scheme", "Laser", "Heating", "E/O", "O/E", "Router", "Total",
    ];
    let watts = rows.iter().map(|r| {
        let b = &r.breakdown;
        let w = vec![
            b.laser_w,
            b.heating_w,
            b.eo_w,
            b.oe_w,
            b.router_w,
            b.total_w(),
        ];
        (&r.label, w)
    });
    println!("{}", f64_table(header, watts, 2));

    println!("Fig. 12(b) — energy per packet (nJ)");
    let nj = rows
        .iter()
        .map(|r| (&r.label, vec![r.energy_per_packet_j * 1e9]));
    println!("{}", f64_table(["scheme", "nJ/packet"], nj, 2));

    let static_min = rows
        .iter()
        .map(|r| r.breakdown.static_fraction())
        .fold(f64::INFINITY, f64::min);
    println!(
        "minimum static (laser+heating) share across schemes: {:.0}%",
        static_min * 100.0
    );
    Ok(())
}

/// Fig. 2(b): token slot latency vs load with credits ∈ {4, 8, 16, 32}, UR.
/// Saturation bandwidth scales with the credit count: credit flow control
/// needs buffers sized to the credit round trip.
fn fig2b(o: &Opts) -> io::Result<()> {
    let curves = figures::fig2b(o.fidelity);
    println!("Fig. 2(b) — Token Slot, Uniform Random, latency (cycles) vs load (pkt/cycle/core)");
    println!("{}", curve_table("credits", &curves, Curve::latencies, 1));
    println!("saturation bandwidth per curve:");
    for c in &curves {
        println!("  {:<10} {:.3}", c.label, c.saturation_rate());
    }
    o.write_json(&curves)?;
    let spec = PlotSpec::latency("Fig. 2(b) — Token Slot credit study (UR)");
    o.write_charts(&[("fig2b".to_string(), spec, curves)])
}

/// Fig. 8: token channel vs GHS vs GHS w/ setaside under UR, BC and TOR.
/// GHS beats token channel (no empty-token round trips); setaside lifts it
/// further by removing HOL blocking, most visibly under BC.
fn fig8(o: &Opts) -> io::Result<()> {
    per_pattern(o, "8", figures::fig8(o.fidelity), |curves| {
        let max_drop = curves
            .iter()
            .map(|c| max_over(c, |s| s.drop_rate))
            .fold(0.0, f64::max);
        println!(
            "max drop/retransmission rate across points: {:.4}%\n",
            max_drop * 100.0
        );
    })
}

/// Fig. 9: token slot vs DHS vs DHS w/ setaside vs DHS w/ circulation under
/// UR, BC and TOR. DHS beats token slot under UR/TOR but loses under BC (HOL
/// blocking); setaside and circulation recover, circulation with no buffer.
fn fig9(o: &Opts) -> io::Result<()> {
    per_pattern(o, "9", figures::fig9(o.fidelity), |curves| {
        for c in curves {
            println!(
                "  {:<20} saturation {:.3}  max drop {:.4}%  max circulation {:.4}%",
                c.label,
                c.saturation_rate(),
                max_over(c, |s| s.drop_rate) * 100.0,
                max_over(c, |s| s.circulation_rate) * 100.0
            );
        }
        println!();
    })
}

/// Figs. 8 and 9: per traffic pattern, a latency table, `footer`, and the
/// chart `fig<fig>_<pattern>`; the JSON holds every pattern's curves.
fn per_pattern(
    o: &Opts,
    fig: &str,
    patterns: Vec<(String, Vec<Curve>)>,
    footer: impl Fn(&[Curve]),
) -> io::Result<()> {
    let mut charts = Vec::new();
    for (pattern, curves) in patterns {
        println!("Fig. {fig} ({pattern}) — latency (cycles) vs load (pkt/cycle/core)");
        println!("{}", curve_table("scheme", &curves, Curve::latencies, 1));
        footer(&curves);
        let spec = PlotSpec::latency(format!("Fig. {fig} ({pattern})"));
        charts.push((format!("fig{fig}_{pattern}"), spec, curves));
    }
    let named: Vec<_> = charts.iter().map(|(name, _, c)| (name, c)).collect();
    o.write_json(&named)?;
    o.write_charts(&charts)
}

/// The largest `metric` over a curve's points (0 for none).
fn max_over(c: &Curve, metric: impl Fn(&RunSummary) -> f64) -> f64 {
    c.points.iter().map(|(_, s)| metric(s)).fold(0.0, f64::max)
}

/// Fig. 10: latency on the 13 synthesized application traces (DESIGN.md).
/// GHS cuts latency well below token channel (paper: ~42 %), DHS modestly
/// below token slot (~4 %), most on the network-intensive NAS kernels.
fn fig10(o: &Opts) -> io::Result<()> {
    // Workload characterization (what a paper's table of benchmarks shows).
    println!("Workload characterization (synthesized traces)");
    let header = [
        "application",
        "rate/core",
        "burstiness",
        "dest entropy",
        "hotspot x",
        "req frac",
    ];
    let dims = NetworkConfig::paper_default(Scheme::TokenSlot);
    let apps = pnoc_traffic::apps::all_paper_apps().into_iter().map(|app| {
        let length = 20_000;
        let mut acc = StatsAccumulator::new(dims.cores(), dims.nodes, length, 64);
        app.synthesize(dims.cores(), dims.nodes, length, 0x00F1_6010, |ev| {
            acc.record(&ev);
            Ok(())
        })
        .expect("the accumulator never fails");
        let s = acc.finalize(app.name);
        let cells = vec![
            s.rate_per_core,
            s.burstiness,
            s.destination_entropy,
            s.hotspot_factor,
            s.request_fraction,
        ];
        (s.name, cells)
    });
    println!("{}", f64_table(header, apps, 3));

    let (global, distributed) = figures::fig10(o.fidelity);
    o.write_json(&(&global, &distributed))?;

    for (title, results) in [
        ("Fig. 10(a) — Global Handshake group", &global),
        ("Fig. 10(b) — Distributed Handshake group", &distributed),
    ] {
        let schemes = results[0].latencies.iter().map(|(l, _)| l.clone());
        let header = once("application".to_string()).chain(schemes);
        let apps = results
            .iter()
            .map(|r| (&r.app, r.latencies.iter().map(|(_, v)| *v).collect()));
        println!("{title} — average latency (cycles)");
        println!("{}", f64_table(header, apps, 1));
        for idx in 1..results[0].latencies.len() {
            let red = mean_latency_reduction(results, idx);
            println!(
                "  mean latency reduction of {} vs {}: {:.1}%",
                results[0].latencies[idx].0,
                results[0].latencies[0].0,
                red * 100.0
            );
        }
        println!();
    }
    Ok(())
}

/// §V-B: IPC of a closed-loop CMP whose 128 four-MSHR cores self-throttle on
/// network latency. GHS w/ setaside beats token channel (paper: ~15 %), DHS
/// w/ setaside beats token slot by less (~1.3 %).
fn ipc(o: &Opts) -> io::Result<()> {
    let rows = figures::ipc(o.fidelity);
    o.write_json(&rows)?;

    let schemes = rows[0].results.iter().map(|(l, _)| l.clone());
    let ipcs = rows
        .iter()
        .map(|r| (&r.workload, r.results.iter().map(|(_, s)| s.ipc).collect()));
    println!("IPC per scheme (instructions/cycle/core)");
    println!(
        "{}",
        f64_table(once("workload".into()).chain(schemes), ipcs, 3)
    );

    println!(
        "mean IPC improvement, GHS w/ Setaside vs Token Channel: {:.1}%",
        mean_ipc_improvement(&rows, 1, 0) * 100.0
    );
    println!(
        "mean IPC improvement, DHS w/ Setaside vs Token Slot:    {:.1}%",
        mean_ipc_improvement(&rows, 3, 2) * 100.0
    );

    println!("\nnetwork latency seen by the CMP (cycles)");
    let header = ["workload", "TC", "GHS+SB", "TS", "DHS+SB"];
    let latencies = rows.iter().map(|r| {
        let l = r.results.iter().map(|(_, s)| s.avg_net_latency).collect();
        (&r.workload, l)
    });
    println!("{}", f64_table(header, latencies, 1));
    Ok(())
}

/// Ablations beyond the paper (DESIGN.md §6): ring size (credit flow control
/// degrades as the round trip grows), home ejection bandwidth, and the
/// sit-out fairness policy (§III-D) on a hotspot. Writes no JSON or SVG.
fn ablations(o: &Opts) -> io::Result<()> {
    let plan = o.fidelity.plan();
    let dhs = Scheme::Dhs {
        setaside: PAPER_SETASIDE,
    };

    // 1. Ring-size scaling at a fixed offered load.
    println!("Ablation 1 — ring size (round-trip time) scaling, UR @ 0.09");
    let header = ["scheme", "N=32,R=4", "N=64,R=8", "N=128,R=16"];
    let rows = [Scheme::TokenSlot, dhs].map(|scheme| {
        let cfgs = [(32, 4), (64, 8), (128, 16)].map(|(nodes, ring_segments)| NetworkConfig {
            nodes,
            ring_segments,
            ..NetworkConfig::paper_default(scheme)
        });
        (scheme.label(), ur_latencies(&cfgs, 0.09, plan))
    });
    println!("{}", f64_table(header, rows, 1));

    // 2. Ejection bandwidth.
    println!("Ablation 2 — home ejection bandwidth, UR @ 0.13");
    let header = ["scheme", "eject=1", "eject=2"];
    let rows = [Scheme::TokenSlot, dhs].map(|scheme| {
        let cfgs = [1, 2].map(|ejection_per_cycle| NetworkConfig {
            ejection_per_cycle,
            ..NetworkConfig::paper_default(scheme)
        });
        (scheme.label(), ur_latencies(&cfgs, 0.13, plan))
    });
    println!("{}", f64_table(header, rows, 1));

    // 3. Fairness policy on a contended (hotspot) channel.
    println!("Ablation 3 — sit-out fairness, DHS w/ Circulation, hotspot(30% → node 0) @ 0.06");
    let policies: Vec<(String, FairnessPolicy)> =
        std::iter::once(("none".into(), FairnessPolicy::None))
            .chain([16, 32, 48].map(|sit_out| {
                let policy = FairnessPolicy::SitOut {
                    serve_quota: 1,
                    sit_out,
                };
                (format!("sit-out(1,{sit_out})"), policy)
            }))
            .collect();
    let cfgs = policies.iter().map(|&(_, fairness)| NetworkConfig {
        fairness,
        ..NetworkConfig::paper_default(Scheme::DhsCirculation)
    });
    let summaries = fleet().map(cfgs.collect(), move |_, &cfg| {
        let hotspot = TrafficPattern::Hotspot {
            target: 0,
            fraction: 0.30,
        };
        Network::run_point(cfg, TenantMixKind::SingleClass, hotspot, 0.06, plan).summary
    });
    let header = [
        "policy",
        "Jain worst",
        "Jain avg",
        "avg latency",
        "throughput",
    ];
    let rows = policies.iter().zip(summaries).map(|((name, _), s)| {
        let cells = vec![
            s.jain_worst,
            s.jain_fairness,
            s.avg_latency,
            s.throughput_per_core,
        ];
        (name, cells)
    });
    println!("{}", f64_table(header, rows, 3));
    Ok(())
}

/// Mean latency of each config under UR at `rate`, one fleet job per
/// config; `∞` once a point saturates.
fn ur_latencies(cfgs: &[NetworkConfig], rate: f64, plan: RunPlan) -> Vec<f64> {
    fleet().map(cfgs.to_vec(), move |_, &cfg| {
        let pattern = TrafficPattern::UniformRandom;
        let s = Network::run_point(cfg, TenantMixKind::SingleClass, pattern, rate, plan).summary;
        if s.saturated {
            f64::INFINITY
        } else {
            s.avg_latency
        }
    })
}

/// §II-B: handshake vs partitioned credits on an SWMR fabric. Handshake works
/// with small buffers; partitioned credits need `N−1`-slot buffers and
/// HOL-block each source's queue. Writes no JSON or SVG.
fn swmr(o: &Opts) -> io::Result<()> {
    let curves = figures::swmr(o.fidelity);
    println!("SWMR fabric, UR — latency (cycles) vs load (pkt/cycle/core)");
    println!(
        "{}",
        curve_table("flow control (buffer)", &curves, Curve::latencies, 1)
    );
    println!(
        "note: partitioned credits refuse to build with B < N−1; handshake keeps\n\
         working down to a handful of buffer slots — the paper's scalability claim\n\
         carried over to SWMR."
    );
    Ok(())
}

/// §I / §II-C: the electrical 2D mesh against the photonic ring at 64 nodes:
/// hop-by-hop latency vs one photonic hop, and credits that work on 1-cycle
/// links but not on the ring's long loop. Writes no JSON or SVG.
fn mesh_vs_ring(o: &Opts) -> io::Result<()> {
    let curves = figures::mesh_vs_ring(o.fidelity);
    println!("64 nodes, UR — latency (cycles) vs load (pkt/cycle/core)");
    println!("{}", curve_table("network", &curves, Curve::latencies, 1));
    println!(
        "takeaways: the mesh needs only 2-flit buffers (3-cycle electrical credit\n\
         loop — §II-C's point) but pays ~3 cycles per hop; the photonic ring is\n\
         one hop at light speed, and the handshake schemes keep its flow control\n\
         buffer-independent too."
    );
    Ok(())
}

/// Fig. 11, UR: (a–e) the handshake schemes' latency barely depends on the
/// credit count (contrast Fig. 2(b)); (f) a small setaside buffer already
/// removes HOL blocking.
fn fig11(o: &Opts) -> io::Result<()> {
    let credit_curves = figures::fig11_credits(o.fidelity);
    let setaside_study = figures::fig11_setaside(o.fidelity);
    o.write_json(&(&credit_curves, &setaside_study))?;

    for (scheme, curves) in credit_curves {
        println!("Fig. 11 — {scheme}: credit sensitivity, UR");
        println!("{}", curve_table("credits", &curves, Curve::latencies, 1));
    }

    println!("Fig. 11(f) — setaside size study, UR @ 0.11 pkt/cycle/core");
    let header = ["scheme", "SA_1", "SA_2", "SA_4", "SA_8", "SA_16"];
    let rows = setaside_study
        .into_iter()
        .map(|(label, points)| (label, points.iter().map(|(_, v)| *v).collect()));
    println!("{}", f64_table(header, rows, 1));
    Ok(())
}

/// Resilience: UR under a uniform per-cycle fault rate from 0 to 1e-3. The
/// handshake schemes absorb every fault class (NACK plus ACK-timeout
/// retransmission: zero loss); the credit baselines leak credits and lose
/// packets.
fn resilience(o: &Opts) -> io::Result<()> {
    let curves = figures::resilience(o.fidelity);
    let rates = FAULT_RATES.iter().map(|r| format!("{r:e}"));
    let header: Vec<String> = once("scheme".to_string()).chain(rates).collect();

    println!(
        "Resilience — uniform per-cycle fault rate sweep, UR load {RESILIENCE_LOAD} pkt/cycle/core"
    );
    println!("mean latency (cycles; ∞ = saturated/wedged)");
    let latencies = curves.iter().map(|c| (&c.label, c.latencies()));
    println!("{}", f64_table(header.clone(), latencies, 1));
    // One row per scheme: its label, then `cell` of each fault-rate point.
    let table = |cell: &dyn Fn(&RunSummary) -> String| {
        let mut t = Table::new(header.clone());
        for c in &curves {
            t.row(once(c.label.clone()).chain(c.points.iter().map(|(_, s)| cell(s))));
        }
        t.render()
    };
    println!("lost packets (generated − delivered after drain grace)");
    println!("{}", table(&|s| s.lost_packets.to_string()));
    println!("credit leaks (flow-control state destroyed beyond recovery)");
    println!("{}", table(&|s| s.credit_leaks.to_string()));
    println!("retransmit rate per send (and duplicates suppressed at homes)");
    println!(
        "{}",
        table(&|s| format!("{} ({} dup)", fmt_f64(s.retransmit_rate, 4), s.duplicates))
    );

    // Verdict: the paper-level reliability claim, checked on this very run.
    for c in &curves {
        let handshake = c.label.contains("GHS") || c.label == "DHS w/ Setaside";
        let lost: u64 = c.points.iter().map(|(_, s)| s.lost_packets).sum();
        let abandoned: u64 = c.points.iter().map(|(_, s)| s.abandoned).sum();
        if handshake {
            let verdict = if lost == 0 && abandoned == 0 {
                "zero loss at every fault rate"
            } else {
                "VIOLATION"
            };
            println!(
                "{}: {verdict} (lost {lost}, abandoned {abandoned})",
                c.label
            );
        } else if lost > 0 {
            let leaks: u64 = c.points.iter().map(|(_, s)| s.credit_leaks).sum();
            println!("{}: lost {lost} packets, leaked {leaks} credits", c.label);
        }
    }

    o.write_json(&curves)?;
    let spec = PlotSpec::latency("Resilience (x = per-cycle fault rate)");
    o.write_charts(&[("resilience".to_string(), spec, curves)])
}

/// Fairness vs load: the multi-tenant mixes through every paper scheme, with
/// and without token-bucket admission. Without it the aggressive tenant
/// takes the grants and per-class Jain fairness decays; with it fairness
/// holds near 1.0.
fn fairness(o: &Opts) -> io::Result<()> {
    let groups = figures::fairness_vs_load(o.fidelity);
    for (mix, curves) in &groups {
        let jains = |c: &Curve| c.points.iter().map(|(_, s)| s.class_jain).collect();
        println!("Fairness ({mix}) — per-class Jain index vs load (pkt/cycle/core)");
        println!("{}", curve_table("scheme", curves, jains, 3));
        // Per-class tail latency at the highest unsaturated point of each
        // curve: the quiet class's p99 is where admission shows up.
        for c in curves {
            let Some((rate, s)) = c
                .points
                .iter()
                .rev()
                .find(|(_, s)| !s.saturated && s.delivered > 0)
            else {
                continue;
            };
            let classes: Vec<String> = s
                .class_summaries
                .iter()
                .map(|cs| format!("c{} p99 {:.0}", cs.class, cs.p99_latency))
                .collect();
            println!(
                "  {:<24} @{rate:.2}  jain {:.3}  [{}]",
                c.label,
                s.class_jain,
                classes.join(", ")
            );
        }
        println!();
    }
    o.write_json(&groups)?;
    let charts: Vec<_> = groups
        .into_iter()
        .map(|(mix, curves)| {
            let spec = PlotSpec::jain(format!("Fairness vs load — {mix} tenant mix"));
            (format!("fairness_{mix}"), spec, curves)
        })
        .collect();
    o.write_charts(&charts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(list: &[&str]) -> Result<Opts, String> {
        parse(&mut Args::new(list.iter().map(|a| a.to_string()))).map(|(_, o)| o)
    }

    #[test]
    fn parses_every_flag() {
        let o = opts(&["--quick", "fig8", "--svg", "s", "--json", "j"]);
        let want = Opts {
            name: "fig8",
            fidelity: Fidelity::Quick,
            svg: Some("s".into()),
            json: Some("j".into()),
        };
        assert_eq!(o, Ok(want));
    }
}
