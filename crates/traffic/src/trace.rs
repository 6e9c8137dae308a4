//! Message-trace vocabulary: the stand-in for the paper's Simics-extracted
//! traffic.
//!
//! A trace is a cycle-ordered stream of [`TraceEvent`]s ("core c injects a
//! packet for node d at cycle t"). The application synthesizer
//! ([`crate::apps::AppProfile::synthesize`]) emits them and the `pnoc-trace`
//! crate encodes, stores and replays them as PTRC.

use crate::classes::ClassId;
use pnoc_sim::Cycle;

/// The protocol role of a traced message (affects reply generation in the
/// closed-loop CMP model; the open-loop NoC replay treats all kinds alike).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageKind {
    /// A cache-miss request travelling core → L2 bank.
    Request,
    /// A data reply travelling L2 bank → core.
    Reply,
    /// Other traffic (coherence, writebacks).
    Data,
}

/// One injected message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Injection cycle.
    pub cycle: Cycle,
    /// Injecting core (global core id).
    pub src_core: usize,
    /// Destination *node*.
    pub dst_node: usize,
    /// Protocol role.
    pub kind: MessageKind,
    /// Traffic class (multi-tenant `QoS`; 0 = the default class).
    pub class: ClassId,
}
