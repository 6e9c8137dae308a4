//! # pnoc-verify — workspace correctness tooling
//!
//! Three coordinated passes, all wired into `ci.sh` as a hard gate:
//!
//! 1. **Determinism lints** ([`lints`]) — a self-contained token-level
//!    scanner enforcing the properties bit-reproducible simulation rests
//!    on: no unordered-collection iteration in sim state, no wall-clock
//!    reads in model code, no ambient randomness outside pnoc-sim's seeded
//!    streams, no silent narrowing casts on cycle/flit counters, and no
//!    `unwrap`/`expect` in pnoc-noc's per-cycle hot paths. Exemptions live
//!    in the checked-in `crates/verify/allowlist.txt`, so every new one is
//!    a reviewable diff.
//! 2. **Bounded model checking** ([`checker`], [`scenarios`]) — exhaustive
//!    exploration of the *real* [`pnoc_noc::channel::Channel`] — the same
//!    monomorphized `Channel<A, F>` the network runs, via
//!    [`pnoc_noc::ChannelModel`] and [`pnoc_noc::with_scheme!`] — for small
//!    configurations of every scheme, proving deadlock-freedom, exactly-once delivery and bounded
//!    handshake resolution under deterministic budgeted fault schedules,
//!    with concrete counterexample schedules on violation.
//! 3. **Runtime invariant audit** ([`audits`]) — pnoc-noc's cycle-level
//!    invariant auditor (flit conservation, buffer bounds, credit/token
//!    conservation, ACK pairing, class starvation, bit-plane exactness),
//!    attached with [`pnoc_noc::Network::attach_auditor`] to full
//!    mixed-traffic runs of every scheme through the shipped open-loop
//!    driver, with and without fault injection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audits;
pub mod checker;
pub mod lexer;
pub mod lints;
pub mod scenarios;

pub use checker::{check, CheckConfig, CheckOutcome, CheckReport, Counterexample};
pub use lints::{run_lints, LintReport};
