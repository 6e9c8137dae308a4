//! Message-trace vocabulary: the stand-in for the paper's Simics-extracted
//! traffic.
//!
//! A trace is a cycle-ordered stream of [`TraceEvent`]s ("core c injects a
//! packet for node d at cycle t"). The application synthesizer
//! ([`crate::apps::AppProfile::synthesize`]) emits them and the `pnoc-trace`
//! crate encodes, stores and replays them as PTRC.

use crate::classes::ClassId;
use pnoc_sim::Cycle;
use serde::{Deserialize, Serialize};

/// Protocol role of a message or packet, from the synthesizer through the
/// simulator's packets to PTRC and back. The closed-loop CMP model answers
/// a `Request` with a `Reply`; the open-loop network treats all kinds alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PacketKind {
    /// A cache-miss request travelling core → L2 bank.
    Request,
    /// A data reply travelling L2 bank → core.
    Reply,
    /// Other traffic (coherence, writebacks).
    Data,
}

/// One injected message: what the synthesizer emits, what a live run's
/// injection subscriber receives, and what a PTRC stream stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Injection cycle.
    pub cycle: Cycle,
    /// Injecting core (global core id).
    pub src_core: usize,
    /// Destination *node*.
    pub dst_node: usize,
    /// Protocol role.
    pub kind: PacketKind,
    /// Traffic class (multi-tenant `QoS`; 0 = the default class).
    pub class: ClassId,
}
