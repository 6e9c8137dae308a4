//! PTRC trace tooling: generate, inspect, ingest, benchmark, record, replay.
//!
//! ```text
//! trace gen    --app <name> --out <path> [--cores N] [--nodes N]
//!              [--length N] [--seed N] [--chunk N]
//! trace gen    --mix <1C|EM|BA|HT> --out <path> [--nodes N] [--cpn N]
//!              [--rate R] [--length N] [--seed N] [--chunk N]
//! trace info   <path>
//! trace ingest <path> [--max-rss-mb N]
//! trace bench  [--quick] [--json <path>] [--check <baseline.json>]
//! trace record --out <path> [--scheme <name>] [--rate R] [--seed N] [--quick]
//! trace replay <path> [--scheme <name>] [--seed N] [--quick]
//! ```
//!
//! `gen` streams an application profile or tenant mix to disk in O(chunk)
//! memory — trace size is bounded by disk, not RAM. `ingest` streams a
//! trace back, validating every chunk CRC, and (with `--max-rss-mb`) fails
//! if peak RSS exceeded the bound: the CI smoke proving bounded-memory
//! ingestion. `bench` is the `BENCH_trace.json` throughput gate (mirrors
//! the `perf` binary). `record` captures
//! a live synthetic run's injections as PTRC; `replay` streams a trace
//! through the network and prints the run summary — recording and replaying
//! under the same scheme/seed/plan reproduces the summary byte-identically.

use pnoc_noc::{NetworkConfig, Scheme};
use pnoc_sim::RunPlan;
use std::io::BufReader;
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> ExitCode {
    eprintln!(
        "usage: trace <gen|info|ingest|bench|record|replay> [flags]\n\
         trace gen    --app <name> --out <path> [--cores N] [--nodes N] [--length N] [--seed N] [--chunk N]\n\
         trace gen    --mix <1C|EM|BA|HT> --out <path> [--nodes N] [--cpn N] [--rate R] [--length N] [--seed N] [--chunk N]\n\
         trace info   <path>\n\
         trace ingest <path> [--max-rss-mb N]\n\
         trace bench  [--quick] [--json <path>] [--check <baseline.json>]\n\
         trace record --out <path> [--scheme <name>] [--rate R] [--seed N] [--quick]\n\
         trace replay <path> [--scheme <name>] [--seed N] [--quick]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    if let Err(e) = pnoc_bench::apply_thread_flag() {
        eprintln!("trace: {e}");
        return ExitCode::FAILURE;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "gen" => cmd_gen(&args[1..]),
        "info" => cmd_info(&args[1..]),
        "ingest" => cmd_ingest(&args[1..]),
        "bench" => cmd_bench(&args[1..]),
        "record" => cmd_record(&args[1..]),
        "replay" => cmd_replay(&args[1..]),
        _ => usage(),
    }
}

/// Parsed `--flag value` pairs.
type Flags = Vec<(String, String)>;

/// Parse `--flag value` pairs plus bare (positional) arguments.
fn parse_flags(args: &[String]) -> Result<(Vec<String>, Flags), String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            if name == "quick" {
                flags.push((name.to_string(), String::new()));
            } else {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("--{name} requires a value"))?;
                flags.push((name.to_string(), value.clone()));
                i += 1;
            }
        } else {
            positional.push(args[i].clone());
        }
        i += 1;
    }
    Ok((positional, flags))
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn parse_num<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
    default: T,
) -> Result<T, String> {
    match flag(flags, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{name}: invalid {v:?}")),
    }
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

fn cmd_gen(args: &[String]) -> ExitCode {
    match gen_inner(args) {
        Ok(msg) => {
            eprintln!("{msg}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace gen: {e}");
            ExitCode::FAILURE
        }
    }
}

fn gen_inner(args: &[String]) -> Result<String, String> {
    let (_, flags) = parse_flags(args)?;
    let out = flag(&flags, "out").ok_or("--out <path> is required")?;
    let length: u64 = parse_num(&flags, "length", 100_000)?;
    let seed: u64 = parse_num(&flags, "seed", 7)?;
    let chunk: usize = parse_num(&flags, "chunk", pnoc_trace::DEFAULT_CHUNK_EVENTS)?;
    let file = std::fs::File::create(out).map_err(|e| format!("creating {out}: {e}"))?;
    let sink = std::io::BufWriter::new(file);
    let t0 = Instant::now();
    let stats = match (flag(&flags, "app"), flag(&flags, "mix")) {
        (Some(app_name), None) => {
            let app = pnoc_traffic::paper_app(app_name)
                .ok_or_else(|| format!("unknown app {app_name:?} (see fig10 for the set)"))?;
            let cores: usize = parse_num(&flags, "cores", 256)?;
            let nodes: usize = parse_num(&flags, "nodes", 64)?;
            let (_, stats) =
                pnoc_trace::generate_app(&app, cores, nodes, length, seed, chunk, sink)
                    .map_err(|e| format!("generating: {e}"))?;
            stats
        }
        (None, Some(mix_label)) => {
            let mix = pnoc_traffic::TenantMixKind::all()
                .into_iter()
                .find(|m| m.label() == mix_label)
                .ok_or_else(|| format!("unknown mix {mix_label:?} (1C, EM, BA, HT)"))?;
            let spec = pnoc_trace::MixSpec {
                mix,
                total_rate: parse_num(&flags, "rate", 0.10)?,
                nodes: parse_num(&flags, "nodes", 64)?,
                cores_per_node: parse_num(&flags, "cpn", 4)?,
                length,
                seed,
            };
            let (_, stats) = pnoc_trace::generate_mix(&spec, chunk, sink)
                .map_err(|e| format!("generating: {e}"))?;
            stats
        }
        _ => return Err("exactly one of --app or --mix is required".into()),
    };
    let secs = t0.elapsed().as_secs_f64();
    Ok(format!(
        "wrote {out}: {} events, {} bytes ({:.2} B/event) in {secs:.2}s ({:.2e} events/s)",
        stats.events,
        stats.bytes,
        stats.bytes as f64 / stats.events.max(1) as f64,
        stats.events as f64 / secs.max(1e-9),
    ))
}

fn cmd_info(args: &[String]) -> ExitCode {
    let (pos, _) = match parse_flags(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("trace info: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(path) = pos.first() else {
        return usage();
    };
    match open_reader(path) {
        Ok(reader) => {
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
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace info: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_ingest(args: &[String]) -> ExitCode {
    match ingest_inner(args) {
        Ok(msg) => {
            println!("{msg}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace ingest: {e}");
            ExitCode::FAILURE
        }
    }
}

fn ingest_inner(args: &[String]) -> Result<String, String> {
    let (pos, flags) = parse_flags(args)?;
    let path = pos.first().ok_or("a trace path is required")?;
    let max_rss_mb: u64 = parse_num(&flags, "max-rss-mb", 0)?;
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

fn cmd_bench(args: &[String]) -> ExitCode {
    use pnoc_bench::trace_bench::{check_regression, measure, validate, TraceBenchReport};
    let (_, flags) = match parse_flags(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("trace bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let quick = flag(&flags, "quick").is_some();
    // Load + validate the baseline before the (slow) measurement so a
    // malformed checked-in file fails fast.
    let baseline: Option<TraceBenchReport> = match flag(&flags, "check") {
        Some(p) => {
            let text = match std::fs::read_to_string(p) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("trace bench: baseline {p}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let report: TraceBenchReport = match serde_json::from_str(&text) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("trace bench: baseline {p}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = validate(&report) {
                eprintln!("trace bench: baseline {p}: {e}");
                return ExitCode::FAILURE;
            }
            Some(report)
        }
        None => None,
    };
    let report = measure(quick);
    if let Err(e) = validate(&report) {
        eprintln!("trace bench: fresh report failed validation: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "{}: {} events, {:.2} B/event — write {:.2e} events/s, ingest {:.2e} events/s ({:.1} MB/s)",
        report.app,
        report.events,
        report.bytes_per_event,
        report.write_events_per_sec,
        report.ingest_events_per_sec,
        report.ingest_mb_per_sec,
    );
    if let Some(p) = flag(&flags, "json") {
        let body = serde_json::to_string_pretty(&report).expect("report serializes");
        if let Err(e) = std::fs::write(p, body + "\n") {
            eprintln!("trace bench: writing {p}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {p}");
    }
    if let Some(base) = baseline {
        match check_regression(&base, &report) {
            Ok(verdict) => println!("regression gate: OK — {verdict}"),
            Err(e) => {
                eprintln!("trace bench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_record(args: &[String]) -> ExitCode {
    match record_inner(args) {
        Ok(msg) => {
            println!("{msg}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace record: {e}");
            ExitCode::FAILURE
        }
    }
}

fn record_inner(args: &[String]) -> Result<String, String> {
    let (_, flags) = parse_flags(args)?;
    let out = flag(&flags, "out").ok_or("--out <path> is required")?;
    let scheme_name = flag(&flags, "scheme").unwrap_or("dhs-setaside");
    let scheme =
        scheme_by_name(scheme_name).ok_or_else(|| format!("unknown scheme {scheme_name:?}"))?;
    let rate: f64 = parse_num(&flags, "rate", 0.10)?;
    let mut cfg = NetworkConfig::small(scheme);
    cfg.seed = parse_num(&flags, "seed", cfg.seed)?;
    let plan = run_plan(flag(&flags, "quick").is_some());
    let mut src = pnoc_noc::SyntheticSource::new(
        pnoc_traffic::pattern::TrafficPattern::UniformRandom,
        rate,
        cfg.nodes,
        cfg.cores_per_node,
        cfg.seed ^ pnoc_noc::sources::TRAFFIC_SEED_XOR,
    );
    let file = std::fs::File::create(out).map_err(|e| format!("creating {out}: {e}"))?;
    let (summary, _, stats) =
        pnoc_trace::record_run(cfg, &mut src, plan, std::io::BufWriter::new(file))
            .map_err(|e| format!("recording: {e}"))?;
    Ok(format!(
        "recorded {out}: {} events, {} bytes; summary: {}",
        stats.events,
        stats.bytes,
        serde_json::to_string(&summary).expect("summary serializes"),
    ))
}

fn cmd_replay(args: &[String]) -> ExitCode {
    match replay_inner(args) {
        Ok(msg) => {
            println!("{msg}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace replay: {e}");
            ExitCode::FAILURE
        }
    }
}

fn replay_inner(args: &[String]) -> Result<String, String> {
    let (pos, flags) = parse_flags(args)?;
    let path = pos.first().ok_or("a trace path is required")?;
    let scheme_name = flag(&flags, "scheme").unwrap_or("dhs-setaside");
    let scheme =
        scheme_by_name(scheme_name).ok_or_else(|| format!("unknown scheme {scheme_name:?}"))?;
    let mut cfg = NetworkConfig::small(scheme);
    cfg.seed = parse_num(&flags, "seed", cfg.seed)?;
    let plan = run_plan(flag(&flags, "quick").is_some());
    let reader = open_reader(path).map_err(|e| format!("{path}: {e}"))?;
    let summary =
        pnoc_trace::replay_run(cfg, reader, plan).map_err(|e| format!("replaying: {e}"))?;
    Ok(serde_json::to_string(&summary).expect("summary serializes"))
}
