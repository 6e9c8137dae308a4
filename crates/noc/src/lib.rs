//! # pnoc-noc — the nanophotonic ring `NoC` simulator
//!
//! Cycle-accurate model of the paper's evaluation platform: a ring-based
//! MWSR (multiple-writer, single-reader) nanophotonic network in which every
//! node is the *home* (single reader) of one data channel and a writer on all
//! others. Packets travel wave-pipelined: the ring is divided into `R`
//! segments (one cycle each; 8 for the paper's 64-node, 5 GHz configuration),
//! so a flit needs 1–`R` cycles depending on sender→home distance and the
//! arbitration token sweeps `N/R` nodes per cycle.
//!
//! Five arbitration + flow-control schemes are implemented (see
//! [`config::Scheme`]):
//!
//! * **Token channel** — global arbitration, credits piggybacked on the
//!   single token, reimbursed only when the token passes home (baseline,
//!   Vantrease et al. MICRO'09),
//! * **Token slot** — distributed arbitration, one credit per token, tokens
//!   regenerated only while the home has uncommitted buffer space (baseline),
//! * **GHS** — Global Handshake: single credit-less token, ACK/NACK
//!   handshake, optional setaside buffer (the paper's §III-A),
//! * **DHS** — Distributed Handshake: a token generated *every* cycle,
//!   ACK/NACK handshake, optional setaside buffer (§III-B),
//! * **DHS-circulation** — no handshake channel at all; the home reinjects
//!   packets into its own channel when its buffer is full, suppressing that
//!   cycle's token (§III-C).
//!
//! Three fabrics share one backbone, [`fabric::Fabric`] — the injection
//! pipeline, metrics, drain contract and open-loop driver — and differ only
//! in their [`fabric::Layer`]: the MWSR ring [`network::Network`] (the
//! paper's platform), the SWMR ring [`swmr::SwmrNetwork`] and the
//! electrical mesh [`emesh::MeshNetwork`]. Open-loop experiments call
//! [`fabric::Fabric::run_open_loop`] with a [`sources::TrafficSource`];
//! closed-loop models drive [`fabric::Fabric::inject`],
//! [`fabric::Fabric::step`] and [`fabric::Fabric::deliveries`] directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The simulator core is held to clippy's pedantic bar (ci.sh denies
// warnings for this crate). A few pedantic lints are judgment calls we
// opt out of wholesale: docs for panics/errors on internal simulation
// APIs, and numeric-cast pedantry — narrowing casts are policed by the
// stricter pnoc-verify `no-silent-truncation` lint instead, with the few
// legitimate narrows routed through [`convert::narrow_u32`].
#![warn(clippy::pedantic)]
#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_precision_loss,
    clippy::cast_sign_loss,
    clippy::missing_errors_doc,
    clippy::missing_panics_doc,
    clippy::module_name_repetitions,
    clippy::must_use_candidate,
    clippy::too_many_lines
)]

mod audit;
pub mod calendar;
pub mod channel;
pub mod config;
pub mod convert;
pub mod emesh;
pub mod fabric;
pub mod fsm;
pub mod metrics;
pub mod network;
pub mod outqueue;
pub mod packet;
pub mod schemes;
pub mod slots;
pub mod sources;
pub mod swmr;
pub mod topology;

pub use config::{AdmissionPolicy, FairnessPolicy, NetworkConfig, Scheme};
pub use emesh::{MeshConfig, MeshNetwork};
pub use fabric::{Fabric, InjectSubscriber, PointDetail};
pub use fsm::{ChannelModel, CycleEvents, CycleFsm};
pub use metrics::{NetworkMetrics, RunSummary};
pub use network::Network;
pub use packet::{Packet, PacketKind};
pub use pnoc_faults::{FaultConfig, RecoveryConfig};
pub use pnoc_traffic::{ClassId, MAX_CLASSES};
pub use sources::{ClassedSource, SyntheticSource, TrafficSource};
pub use swmr::{SwmrConfig, SwmrFlowControl, SwmrNetwork};
pub use topology::Topology;
