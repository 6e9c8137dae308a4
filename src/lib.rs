//! # nanophotonic-handshake
//!
//! A from-scratch Rust reproduction of *“A Case for Handshake in Nanophotonic
//! Interconnects”* (Wang, Jayabalan, Ahn, Gu, Yum, Kim — 2013): handshake-based
//! flow control (GHS/DHS with setaside buffers and circulation) for ring-based
//! MWSR silicon-photonic networks-on-chip, together with everything needed to
//! evaluate it — a cycle-accurate network simulator, the token-channel and
//! token-slot baselines, traffic and trace substrates, photonic component and
//! power models, and a closed-loop CMP for IPC studies.
//!
//! This crate is a facade: it re-exports the workspace crates under stable
//! module names and surfaces the most common entry points at the root.
//!
//! ```
//! use nanophotonic_handshake::prelude::*;
//!
//! // One point of a latency-vs-load experiment, paper configuration, one
//! // traffic class. The same call runs a point on `SwmrNetwork` and
//! // `MeshNetwork`.
//! let cfg = NetworkConfig::paper_default(Scheme::Dhs { setaside: 8 });
//! let point = Network::run_point(
//!     cfg,
//!     TenantMixKind::SingleClass,
//!     TrafficPattern::UniformRandom,
//!     0.05,
//!     RunPlan::quick(),
//! );
//! assert!(!point.summary.saturated);
//! ```
//!
//! See the workspace `README.md` for the architecture overview and
//! `EXPERIMENTS.md` for paper-vs-measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Simulation kernel: clock, deterministic RNG, statistics, sweep thread policy.
pub use pnoc_sim as sim;

/// Photonic substrate: wavelengths, waveguides, rings, losses, budgets.
pub use pnoc_photonics as photonics;

/// Traffic substrate: patterns, injectors, trace events, application profiles.
pub use pnoc_traffic as traffic;

/// The ring NoC simulator and all arbitration/flow-control schemes.
pub use pnoc_noc as noc;

/// Deterministic fault injection (bit errors, lost tokens/ACKs, degraded
/// rings, drain stalls) and the timeout/retransmit recovery parameters.
pub use pnoc_faults as faults;

/// Observability: packet-lifecycle event traces, per-channel occupancy
/// time-series, the unbounded-range latency recorder.
pub use pnoc_obs as obs;

/// Streaming trace ingestion: the PTRC binary trace format, bounded-memory
/// writer/reader, live-run recorder, and bit-identical replay.
pub use pnoc_trace as trace;

/// Power and energy models (laser, tuning, conversion, router).
pub use pnoc_power as power;

/// Closed-loop CMP model (MSHR-throttled cores, L2 banks, IPC).
pub use pnoc_cmp as cmp;

/// The items most experiments need.
pub mod prelude {
    pub use crate::cmp::{CmpConfig, CmpSystem, CmpWorkload};
    pub use crate::faults::{FaultConfig, RecoveryConfig, RingFaultModel};
    pub use crate::noc::{
        FairnessPolicy, Network, NetworkConfig, Packet, PacketKind, PointDetail, Scheme,
        SyntheticSource, TrafficSource,
    };
    pub use crate::photonics::{ComponentBudget, NetworkDims};
    pub use crate::power::{ActivityProfile, PowerReport};
    pub use crate::sim::{RunPlan, SimRng};
    pub use crate::traffic::classes::TenantMixKind;
    pub use crate::traffic::pattern::TrafficPattern;
    pub use crate::traffic::{all_paper_apps, AppProfile};
}
