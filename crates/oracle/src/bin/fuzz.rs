//! Differential fuzz driver: `pnoc-noc` vs. the `pnoc-oracle` reference
//! simulator.
//!
//! ```text
//! fuzz [--quick] [--cases N] [--seed S] [--sabotage-check]
//! ```
//!
//! * `--quick` — the ci.sh smoke: run the default 200 cases (override with
//!   the `PNOC_FUZZ_CASES` env var) and fail on any divergence.
//! * `--cases N` — explicit case count (overrides `--quick`/env).
//! * `--seed S` — master seed (default 0xD1FF).
//! * `--sabotage-check` — self-test: runs cases with duplicate
//!   suppression disabled in `pnoc-noc` only (`FuzzCase::sabotage`, armed
//!   at run time on the default build) and *expects* to find a
//!   divergence, proving the harness detects real bugs. Exits 0 when the
//!   sabotage is caught and shrunk, 1 when it slipped through.
//!
//! Other runs exit 0 when every case agrees, 1 on a divergence (or when
//! the cases miss one of the seven schemes), and 2 on a bad argument.
//!
//! Any divergence is shrunk to a minimal case and printed as a
//! ready-to-paste regression test.

use pnoc_oracle::{check_case, generate_case, shrink, FuzzCase};

/// Default master seed for the case generator.
const DEFAULT_SEED: u64 = 0xD1FF;
/// Default case count for `--quick` (and plain runs).
const DEFAULT_CASES: u64 = 200;

fn main() {
    let mut cases: Option<u64> = None;
    let mut seed = DEFAULT_SEED;
    let mut quick = false;
    let mut sabotage_check = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--sabotage-check" => sabotage_check = true,
            "--cases" => {
                i += 1;
                cases = Some(parse_u64(&args, i, "--cases"));
            }
            "--seed" => {
                i += 1;
                seed = parse_u64(&args, i, "--seed");
            }
            other => {
                eprintln!("fuzz: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let _ = quick; // --quick is the documented ci.sh spelling of defaults

    if sabotage_check {
        std::process::exit(run_sabotage_check(seed));
    }

    let n = cases
        .or_else(|| {
            std::env::var("PNOC_FUZZ_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(DEFAULT_CASES);
    std::process::exit(run_fuzz(seed, n));
}

fn parse_u64(args: &[String], i: usize, flag: &str) -> u64 {
    let Some(v) = args.get(i) else {
        eprintln!("fuzz: {flag} needs a value");
        std::process::exit(2);
    };
    let parsed = if let Some(hex) = v.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        v.parse()
    };
    parsed.unwrap_or_else(|_| {
        eprintln!("fuzz: invalid value for {flag}: `{v}`");
        std::process::exit(2);
    })
}

/// The normal differential sweep: `n` generated cases, zero divergences
/// expected.
///
/// Cases are independent `(seed, index)` pairs, so they run on a
/// work-stealing fleet ([`pnoc_fleet::Fleet`]); divergences are reported by
/// **lowest index** regardless of completion order, so the output is
/// identical to the old sequential sweep whenever exactly one case
/// diverges, and deterministic always.
fn run_fuzz(seed: u64, n: u64) -> i32 {
    let fleet = pnoc_fleet::Fleet::with_default_threads();
    let indices: Vec<u64> = (0..n).collect();
    let outcomes = fleet.map(indices, move |_, &index| {
        let case = generate_case(seed, index);
        let divergence = check_case(&case).map(|msg| (index, msg));
        (case.scheme.label(), case.faults.enabled(), divergence)
    });

    let mut per_scheme: Vec<(String, u64)> = Vec::new();
    let mut faulty = 0u64;
    for (label, has_faults, divergence) in outcomes {
        match per_scheme.iter_mut().find(|(l, _)| *l == label) {
            Some((_, c)) => *c += 1,
            None => per_scheme.push((label, 1)),
        }
        if has_faults {
            faulty += 1;
        }
        // First divergence in index order (outputs preserve input order).
        if let Some((index, msg)) = divergence {
            let case = generate_case(seed, index);
            return report_divergence(&case, index, &msg);
        }
    }
    println!("fuzz: {n} cases, 0 divergences (seed {seed:#x}, {faulty} with faults)");
    for (label, count) in &per_scheme {
        println!("  {label}: {count}");
    }
    if per_scheme.len() < 7 && n >= 7 {
        eprintln!(
            "fuzz: only {} of 7 schemes covered — generator drift?",
            per_scheme.len()
        );
        return 1;
    }
    0
}

fn report_divergence(case: &FuzzCase, index: u64, msg: &str) -> i32 {
    eprintln!("fuzz: DIVERGENCE at case {index}: {msg}");
    eprintln!("fuzz: shrinking...");
    let small = shrink(case);
    let confirm = check_case(&small).unwrap_or_else(|| "shrunk case no longer diverges".into());
    eprintln!("fuzz: minimal reproducer ({confirm}):");
    eprintln!("{}", small.to_rust_literal());
    1
}

/// Self-test: with duplicate suppression disabled in `pnoc-noc`,
/// handshake-with-recovery traffic under ACK loss must diverge (the
/// optimized simulator re-accepts duplicates the oracle suppresses).
fn run_sabotage_check(seed: u64) -> i32 {
    for index in 0..100 {
        let case = sabotage_case(seed, index);
        if let Some(msg) = check_case(&case) {
            println!("fuzz: sabotage detected at case {index}: {msg}");
            let small = shrink(&case);
            println!("fuzz: shrunk reproducer:");
            println!("{}", small.to_rust_literal());
            return 0;
        }
    }
    eprintln!("fuzz: sabotage NOT detected in 100 cases — the harness is blind");
    1
}

/// A generated case steered into sabotage-sensitive territory: handshake
/// scheme, recovery armed, heavy ACK loss so timeouts retransmit packets
/// the home has already accepted.
fn sabotage_case(seed: u64, index: u64) -> FuzzCase {
    use pnoc_noc::Scheme;
    // Odd generator indices carry a fault schedule to mutate.
    let mut c = generate_case(seed, index * 2 + 1);
    c.scheme = [
        Scheme::Ghs { setaside: 0 },
        Scheme::Ghs { setaside: 2 },
        Scheme::Dhs { setaside: 0 },
        Scheme::Dhs { setaside: 2 },
    ][(index % 4) as usize];
    c.faults.ack_loss = 0.05;
    c.faults.data_loss = 0.001;
    c.faults.data_corrupt = 0.0;
    c.faults.token_loss = 0.0;
    c.faults.stall_start = 0.0;
    c.faults.max_data_faults = u64::MAX;
    c.faults.max_ack_faults = u64::MAX;
    c.rate = 0.2;
    c.warmup = 20;
    c.measure = 200;
    c.drain = 40;
    c.sabotage = true;
    c
}
