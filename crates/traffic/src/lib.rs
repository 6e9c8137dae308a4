//! # pnoc-traffic — workload substrate
//!
//! Everything that generates packets for the NoC simulator:
//!
//! * [`pattern`] — the synthetic destination patterns of the paper's §V
//!   (Uniform Random, Bit Complement, Tornado) plus the usual extras
//!   (transpose, bit reversal, hotspot, nearest neighbour),
//! * [`injection`] — open-loop injection processes: Bernoulli (the paper's
//!   methodology) and an on/off bursty process used for application traces,
//! * [`trace`] — the message-trace event vocabulary (encoded, stored and
//!   replayed as PTRC by `pnoc-trace`), standing in for the paper's
//!   Simics-extracted traces,
//! * [`apps`] — per-benchmark traffic profiles for the 13 applications of
//!   Fig. 10 (SPEComp 2001, PARSEC, SPLASH-2, NAS, SPECjbb), with a
//!   deterministic trace synthesizer. See DESIGN.md §"Substitutions" for why
//!   this preserves the experiment's behaviour,
//! * [`classes`] — multi-tenant traffic classes: per-flow class tags,
//!   bursty adversaries, elephant/mice mixes, and hotspot tenants for the
//!   QoS/admission-control experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod classes;
pub mod injection;
pub mod pattern;
pub mod stats;
pub mod trace;

pub use apps::{all_paper_apps, paper_app, AppProfile, Suite};
pub use classes::{BurstCfg, ClassId, TenantMixKind, TenantSpec, MAX_CLASSES};
pub use injection::{BernoulliInjector, OnOffInjector};
pub use pattern::TrafficPattern;
pub use stats::{StatsAccumulator, TraceStats};
pub use trace::{PacketKind, TraceEvent};
