//! # pnoc-sim — simulation kernel
//!
//! Foundation crate for the nanophotonic-handshake NoC reproduction. It provides
//! the pieces every other crate builds on:
//!
//! * [`Cycle`] / [`Clock`] — discrete simulation time,
//! * [`rng::SimRng`] — a small, fast, fully deterministic PRNG (xoshiro256**),
//!   so that every experiment is reproducible from a seed,
//! * [`stats`] — streaming statistics (Welford mean/variance, the exact
//!   quantile oracle, Jain fairness index),
//! * [`sweep`] — the worker-thread policy the `pnoc-fleet` executor sizes
//!   parallel sweeps by (each sweep point is an independent simulation),
//! * [`plan::RunPlan`] — the warmup/measure/drain phase protocol used by all
//!   latency-vs-load experiments.
//!
//! The kernel is deliberately free of any network-specific concepts; the NoC
//! model lives in `pnoc-noc`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod clock;
pub mod exact;
pub mod plan;
pub mod rangeset;
pub mod rng;
pub mod stats;
pub mod sweep;
pub mod util;

pub use batch::BatchMeans;
pub use clock::{Clock, Cycle};
pub use exact::ExactSum;
pub use plan::{Phase, RunPlan};
pub use rangeset::{IndexRange, RangeSet};
pub use rng::SimRng;
pub use stats::{exact_quantile, Running};
