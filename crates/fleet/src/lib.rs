//! # pnoc-fleet — work-stealing, checkpointable sweep engine
//!
//! The paper's figures are products of large sweeps (scheme × traffic ×
//! injection rate × replicas); the ROADMAP's north star is running
//! *millions* of such simulations as a service. This crate is the execution
//! subsystem between the deterministic `(seed, index)` job encoding
//! (`pnoc-oracle` pioneered it for fuzz cases) and the mergeable aggregates
//! (`pnoc-obs`'s [`LatencyRecorder`], `pnoc-sim`'s `ExactSum`):
//!
//! * [`Fleet`] — a persistent work-stealing executor: per-worker deques,
//!   steal-half, parked idle workers, jobs described as index **ranges**
//!   (never materialized vectors),
//! * [`SweepSpec`] — a deterministic sweep description whose jobs are pure
//!   functions of `(spec, index)`,
//! * [`MergeSummary`] — streaming per-cell aggregation with **exactly
//!   commutative** folds, so results are independent of completion order,
//! * [`checkpoint`] — an append-only `fleet.ckpt` journal; a killed sweep
//!   resumes without recomputation and produces a byte-identical report.
//!
//! [`Fleet::map`] (input-order fork/join over materialized inputs) and
//! [`Fleet::submit`] (index-range batches) are the only ways the workspace
//! fans work out across threads.
//!
//! See DESIGN.md §13 for the architecture and the determinism argument, and
//! EXPERIMENTS.md ("Fleet sweeps") for the operational walkthrough.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The whole crate is held to clippy's pedantic bar, like pnoc-noc (ci.sh's
// workspace clippy pass denies warnings). Opt-outs, all judgment
// calls rather than correctness: panic/error docs on internal APIs,
// cast pedantry (narrowing is policed by the pnoc-verify lint set), and
// module-name repetition in re-exports.
#![warn(clippy::pedantic)]
#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_precision_loss,
    clippy::cast_sign_loss,
    clippy::missing_panics_doc,
    clippy::missing_errors_doc,
    clippy::module_name_repetitions,
    clippy::must_use_candidate,
    clippy::doc_markdown,
    clippy::similar_names
)]

pub mod agg;
pub mod checkpoint;
pub mod executor;
#[cfg(feature = "model-sync")]
pub mod model;
pub mod replay;
pub mod runner;
pub mod spec;
pub mod sync;

pub use agg::{CellReport, MergeSummary};
pub use checkpoint::{spec_fingerprint, Journal, SweepState};
pub use executor::{suite_threads, BatchHandle, Fleet};
pub use replay::{run_replay, ReplayPoint, ReplayReport, ReplaySpec};
pub use runner::{run_sweep, SweepOptions, SweepOutcome, SweepReport, KILL_EXIT_CODE};
pub use spec::{SweepBase, SweepSpec};

#[cfg(doc)]
use pnoc_obs::LatencyRecorder;
