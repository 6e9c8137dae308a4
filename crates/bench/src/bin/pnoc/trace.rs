//! `pnoc trace`: PTRC trace tooling: generate, inspect, ingest, benchmark,
//! record, replay.
//!
//! ```text
//! pnoc trace gen    --app <name> --out <path> [--cores N] [--nodes N]
//!                   [--length N] [--seed N] [--chunk N]
//! pnoc trace gen    --mix <1C|EM|BA|HT> --out <path> [--nodes N] [--cpn N]
//!                   [--rate R] [--length N] [--seed N] [--chunk N]
//! pnoc trace info   <path>
//! pnoc trace ingest <path> [--max-rss-mb N]
//! pnoc trace bench  [--quick] [--json <path>] [--check <baseline.json>]
//! pnoc trace record --out <path> [--scheme <name>] [--rate R] [--seed N] [--quick]
//! pnoc trace replay <path> [--scheme <name>] [--seed N] [--quick]
//! ```
//!
//! `gen` streams an application profile or tenant mix to disk in O(chunk)
//! memory — trace size is bounded by disk, not RAM. `ingest` streams a
//! trace back, validating every chunk CRC, and (with `--max-rss-mb`) fails
//! if peak RSS exceeded the bound: the CI smoke proving bounded-memory
//! ingestion. `bench` is the `BENCH_trace.json` throughput gate (mirrors
//! `pnoc perf`). `record` captures
//! a live synthetic run's injections as PTRC; `replay` streams a trace
//! through the network and prints the run summary — recording and replaying
//! under the same scheme/seed/plan reproduces the summary byte-identically.

use std::error::Error;
use std::io::BufReader;
use std::time::Instant;

use pnoc_noc::{NetworkConfig, Scheme};
use pnoc_sim::RunPlan;
use pnoc_trace::MixSpec;
use pnoc_traffic::AppProfile;

use crate::args::{is_flag, unexpected, Args};

pub const USAGE: &str = "usage: pnoc trace <gen|info|ingest|bench|record|replay> [flags] [--threads N]
  pnoc trace gen    --app <name> --out <path> [--cores N] [--nodes N] [--length N] [--seed N] [--chunk N]
  pnoc trace gen    --mix <1C|EM|BA|HT> --out <path> [--nodes N] [--cpn N] [--rate R] [--length N] [--seed N] [--chunk N]
  pnoc trace info   <path>
  pnoc trace ingest <path> [--max-rss-mb N]
  pnoc trace bench  [--quick] [--json <path>] [--check <baseline.json>]
  pnoc trace record --out <path> [--scheme <name>] [--rate R] [--seed N] [--quick]
  pnoc trace replay <path> [--scheme <name>] [--seed N] [--quick]";

/// The parsed command line: one subcommand and its options.
pub enum Opts {
    Gen {
        out: String,
        source: Source,
        chunk: usize,
    },
    Info {
        path: String,
    },
    Ingest {
        path: String,
        max_rss_mb: u64,
    },
    Bench {
        quick: bool,
        json: Option<String>,
        check: Option<String>,
    },
    Record {
        out: String,
        cfg: NetworkConfig,
        rate: f64,
        quick: bool,
    },
    Replay {
        path: String,
        cfg: NetworkConfig,
        quick: bool,
    },
}

/// What `gen` streams to disk.
pub enum Source {
    App {
        app: AppProfile,
        cores: usize,
        nodes: usize,
        length: u64,
        seed: u64,
    },
    Mix(MixSpec),
}

/// Every option of every subcommand, as given. Each subcommand takes only
/// the flags [`parse`] lists for it.
#[derive(Default)]
struct Given {
    path: Option<String>,
    out: Option<String>,
    app: Option<String>,
    mix: Option<String>,
    scheme: Option<String>,
    json: Option<String>,
    check: Option<String>,
    cores: Option<usize>,
    nodes: Option<usize>,
    cpn: Option<usize>,
    rate: Option<f64>,
    length: Option<u64>,
    seed: Option<u64>,
    chunk: Option<usize>,
    max_rss_mb: Option<u64>,
    quick: bool,
}

/// Parse the arguments after `trace`: the subcommand, then its flags and
/// its trace path if it takes one.
pub fn parse(args: &mut Args) -> Result<Opts, String> {
    let cmd = args.next()?.ok_or("missing subcommand")?;
    let (flags, takes_path): (&[&str], bool) = match cmd.as_str() {
        "gen" => (
            &[
                "--app", "--mix", "--out", "--cores", "--nodes", "--cpn", "--rate", "--length",
                "--seed", "--chunk",
            ],
            false,
        ),
        "info" => (&[], true),
        "ingest" => (&["--max-rss-mb"], true),
        "bench" => (&["--quick", "--json", "--check"], false),
        "record" => (&["--out", "--scheme", "--rate", "--seed", "--quick"], false),
        "replay" => (&["--scheme", "--seed", "--quick"], true),
        _ => return Err(format!("unknown subcommand {cmd}")),
    };
    let mut g = Given::default();
    while let Some(arg) = args.next()? {
        match arg.as_str() {
            _ if takes_path && g.path.is_none() && !is_flag(&arg) => g.path = Some(arg),
            flag if !flags.contains(&flag) => return Err(unexpected(&arg)),
            "--out" => g.out = Some(args.value(&arg)?),
            "--app" => g.app = Some(args.value(&arg)?),
            "--mix" => g.mix = Some(args.value(&arg)?),
            "--scheme" => g.scheme = Some(args.value(&arg)?),
            "--json" => g.json = Some(args.value(&arg)?),
            "--check" => g.check = Some(args.value(&arg)?),
            "--cores" => g.cores = Some(args.num(&arg)?),
            "--nodes" => g.nodes = Some(args.num(&arg)?),
            "--cpn" => g.cpn = Some(args.num(&arg)?),
            "--rate" => g.rate = Some(args.num(&arg)?),
            "--length" => g.length = Some(args.num(&arg)?),
            "--seed" => g.seed = Some(args.num(&arg)?),
            "--chunk" => g.chunk = Some(args.num(&arg)?),
            "--max-rss-mb" => g.max_rss_mb = Some(args.num(&arg)?),
            "--quick" => g.quick = true,
            _ => return Err(unexpected(&arg)),
        }
    }
    let path = |g: &mut Given| g.path.take().ok_or("a trace path is required");
    let out = |g: &mut Given| g.out.take().ok_or("--out <path> is required");
    Ok(match cmd.as_str() {
        "gen" => Opts::Gen {
            out: out(&mut g)?,
            chunk: g.chunk.unwrap_or(pnoc_trace::DEFAULT_CHUNK_EVENTS),
            source: gen_source(g)?,
        },
        "info" => Opts::Info {
            path: path(&mut g)?,
        },
        "ingest" => Opts::Ingest {
            path: path(&mut g)?,
            max_rss_mb: g.max_rss_mb.unwrap_or(0),
        },
        "bench" => Opts::Bench {
            quick: g.quick,
            json: g.json,
            check: g.check,
        },
        "record" => Opts::Record {
            out: out(&mut g)?,
            cfg: network_config(&g)?,
            rate: g.rate.unwrap_or(0.10),
            quick: g.quick,
        },
        _ => Opts::Replay {
            path: path(&mut g)?,
            cfg: network_config(&g)?,
            quick: g.quick,
        },
    })
}

/// `gen`'s source: exactly one of `--app` and `--mix`, with only the
/// sizing flags that source reads.
fn gen_source(g: Given) -> Result<Source, String> {
    let length = g.length.unwrap_or(100_000);
    let seed = g.seed.unwrap_or(7);
    let nodes = g.nodes.unwrap_or(64);
    match (g.app, g.mix) {
        (Some(name), None) => {
            if g.cpn.is_some() || g.rate.is_some() {
                return Err("--cpn and --rate go with --mix, not --app".into());
            }
            let app = pnoc_traffic::paper_app(&name)
                .ok_or_else(|| format!("unknown app {name:?} (see fig10 for the set)"))?;
            let cores = g.cores.unwrap_or(256);
            Ok(Source::App {
                app,
                cores,
                nodes,
                length,
                seed,
            })
        }
        (None, Some(label)) => {
            if g.cores.is_some() {
                return Err("--cores goes with --app, not --mix".into());
            }
            let mix = pnoc_traffic::TenantMixKind::all()
                .into_iter()
                .find(|m| m.label() == label)
                .ok_or_else(|| format!("unknown mix {label:?} (1C, EM, BA, HT)"))?;
            Ok(Source::Mix(MixSpec {
                mix,
                total_rate: g.rate.unwrap_or(0.10),
                nodes,
                cores_per_node: g.cpn.unwrap_or(4),
                length,
                seed,
            }))
        }
        _ => Err("exactly one of --app or --mix is required".into()),
    }
}

/// The small network `record` and `replay` run: `--scheme` (default
/// `dhs-setaside`), seeded by `--seed` when given.
fn network_config(g: &Given) -> Result<NetworkConfig, String> {
    let name = g.scheme.as_deref().unwrap_or("dhs-setaside");
    let scheme = scheme_by_name(name).ok_or_else(|| format!("unknown scheme {name:?}"))?;
    let mut cfg = NetworkConfig::small(scheme);
    cfg.seed = g.seed.unwrap_or(cfg.seed);
    Ok(cfg)
}

pub fn run(opts: Opts) -> Result<(), Box<dyn Error>> {
    match opts {
        Opts::Gen { out, source, chunk } => eprintln!("{}", gen(&out, &source, chunk)?),
        Opts::Info { path } => {
            let reader = open_reader(&path).map_err(|e| format!("{path}: {e}"))?;
            let meta = reader.meta().clone();
            println!(
                "{}: PTRC v{} — {} cores × {} nodes, {} cycles, classes {:?}",
                path,
                pnoc_trace::VERSION,
                meta.cores,
                meta.nodes,
                meta.length,
                meta.classes
            );
        }
        Opts::Ingest { path, max_rss_mb } => println!("{}", ingest(&path, max_rss_mb)?),
        Opts::Bench { quick, json, check } => bench(quick, json.as_deref(), check.as_deref())?,
        Opts::Record {
            out,
            cfg,
            rate,
            quick,
        } => println!("{}", record(&out, cfg, rate, quick)?),
        Opts::Replay { path, cfg, quick } => {
            let reader = open_reader(&path).map_err(|e| format!("{path}: {e}"))?;
            let summary = pnoc_trace::replay_run(cfg, reader, run_plan(quick))
                .map_err(|e| format!("replaying: {e}"))?;
            println!(
                "{}",
                serde_json::to_string(&summary).expect("summary serializes")
            );
        }
    }
    Ok(())
}

fn scheme_by_name(name: &str) -> Option<Scheme> {
    match name {
        "token-channel" => Some(Scheme::TokenChannel),
        "token-slot" => Some(Scheme::TokenSlot),
        "ghs" => Some(Scheme::Ghs { setaside: 0 }),
        "ghs-setaside" => Some(Scheme::Ghs { setaside: 4 }),
        "dhs" => Some(Scheme::Dhs { setaside: 0 }),
        "dhs-setaside" => Some(Scheme::Dhs { setaside: 4 }),
        "dhs-circ" => Some(Scheme::DhsCirculation),
        _ => None,
    }
}

fn run_plan(quick: bool) -> RunPlan {
    if quick {
        RunPlan::quick()
    } else {
        RunPlan::standard()
    }
}

/// Peak RSS of this process in MiB, from `/proc/self/status` `VmHWM`
/// (Linux only; `None` elsewhere).
fn peak_rss_mib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024)
}

fn gen(out: &str, source: &Source, chunk: usize) -> Result<String, String> {
    let file = std::fs::File::create(out).map_err(|e| format!("creating {out}: {e}"))?;
    let sink = std::io::BufWriter::new(file);
    let t0 = Instant::now();
    let (_, stats) = match source {
        Source::App {
            app,
            cores,
            nodes,
            length,
            seed,
        } => pnoc_trace::generate_app(app, *cores, *nodes, *length, *seed, chunk, sink),
        Source::Mix(spec) => pnoc_trace::generate_mix(spec, chunk, sink),
    }
    .map_err(|e| format!("generating: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    Ok(format!(
        "wrote {out}: {} events, {} bytes ({:.2} B/event) in {secs:.2}s ({:.2e} events/s)",
        stats.events,
        stats.bytes,
        stats.bytes as f64 / stats.events.max(1) as f64,
        stats.events as f64 / secs.max(1e-9),
    ))
}

fn ingest(path: &str, max_rss_mb: u64) -> Result<String, String> {
    let size = std::fs::metadata(path)
        .map_err(|e| format!("{path}: {e}"))?
        .len();
    let reader = open_reader(path).map_err(|e| format!("{path}: {e}"))?;
    let t0 = Instant::now();
    let mut events = 0u64;
    for ev in reader {
        ev.map_err(|e| format!("{path}: {e}"))?;
        events += 1;
    }
    let secs = t0.elapsed().as_secs_f64();
    let mut msg = format!(
        "ingested {path}: {events} events, {size} bytes in {secs:.2}s \
         ({:.2e} events/s, {:.1} MB/s)",
        events as f64 / secs.max(1e-9),
        size as f64 / 1e6 / secs.max(1e-9),
    );
    if let Some(rss) = peak_rss_mib() {
        msg.push_str(&format!("; peak RSS {rss} MiB"));
        if max_rss_mb > 0 && rss > max_rss_mb {
            return Err(format!(
                "peak RSS {rss} MiB exceeds --max-rss-mb {max_rss_mb}: \
                 streaming ingestion is not memory-bounded"
            ));
        }
    } else if max_rss_mb > 0 {
        return Err("--max-rss-mb: /proc/self/status unavailable on this platform".into());
    }
    Ok(msg)
}

fn open_reader(
    path: &str,
) -> std::io::Result<pnoc_trace::StreamingTraceReader<BufReader<std::fs::File>>> {
    let file = std::fs::File::open(path)?;
    pnoc_trace::StreamingTraceReader::open(BufReader::new(file))
}

fn bench(quick: bool, json: Option<&str>, check: Option<&str>) -> Result<(), String> {
    use pnoc_bench::trace_bench::{check_regression, measure, validate, TraceBenchReport};
    // Load + validate the baseline before the (slow) measurement so a
    // malformed checked-in file fails fast.
    let baseline: Option<TraceBenchReport> = match check {
        Some(p) => {
            let load = || -> Result<TraceBenchReport, String> {
                let text = std::fs::read_to_string(p).map_err(|e| e.to_string())?;
                let report = serde_json::from_str(&text).map_err(|e| e.to_string())?;
                validate(&report)?;
                Ok(report)
            };
            Some(load().map_err(|e| format!("baseline {p}: {e}"))?)
        }
        None => None,
    };
    let report = measure(quick);
    validate(&report).map_err(|e| format!("fresh report failed validation: {e}"))?;
    println!(
        "{}: {} events, {:.2} B/event — write {:.2e} events/s, ingest {:.2e} events/s ({:.1} MB/s)",
        report.app,
        report.events,
        report.bytes_per_event,
        report.write_events_per_sec,
        report.ingest_events_per_sec,
        report.ingest_mb_per_sec,
    );
    if let Some(p) = json {
        let body = serde_json::to_string_pretty(&report).expect("report serializes");
        std::fs::write(p, body + "\n").map_err(|e| format!("writing {p}: {e}"))?;
        eprintln!("wrote {p}");
    }
    if let Some(base) = baseline {
        let verdict = check_regression(&base, &report)?;
        println!("regression gate: OK — {verdict}");
    }
    Ok(())
}

fn record(out: &str, cfg: NetworkConfig, rate: f64, quick: bool) -> Result<String, String> {
    let mut src = pnoc_noc::SyntheticSource::new(
        pnoc_traffic::pattern::TrafficPattern::UniformRandom,
        rate,
        cfg.nodes,
        cfg.cores_per_node,
        cfg.seed ^ pnoc_noc::sources::TRAFFIC_SEED_XOR,
    );
    let file = std::fs::File::create(out).map_err(|e| format!("creating {out}: {e}"))?;
    let (summary, _, stats) = pnoc_trace::record_run(
        cfg,
        &mut src,
        run_plan(quick),
        std::io::BufWriter::new(file),
    )
    .map_err(|e| format!("recording: {e}"))?;
    Ok(format!(
        "recorded {out}: {} events, {} bytes; summary: {}",
        stats.events,
        stats.bytes,
        serde_json::to_string(&summary).expect("summary serializes"),
    ))
}
