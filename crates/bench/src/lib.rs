//! # pnoc-bench — paper-reproduction harnesses
//!
//! One binary, `pnoc`, holds every tool (run with `--release`). `pnoc
//! figure <name> [--quick] [--svg DIR] [--json DIR] [--threads N]` runs a
//! table/figure harness by name:
//!
//! | Name        | Reproduces | Content |
//! |-------------|-----------|---------|
//! | `table1`    | Table I   | per-scheme optical component budgets |
//! | `fig12`     | Fig. 12   | power breakdown (a) and energy per packet (b) |
//! | `fig2b`     | Fig. 2(b) | token slot latency vs load, credits ∈ {4, 8, 16, 32}, UR |
//! | `fig8`      | Fig. 8    | token channel vs GHS vs GHS w/setaside; UR / BC / TOR |
//! | `fig9`      | Fig. 9    | token slot vs DHS vs DHS w/setaside vs DHS w/circulation; UR / BC / TOR |
//! | `fig10`     | Fig. 10   | latency on the 13 application traces, both scheme groups |
//! | `ipc`       | §V-B text | IPC comparison on the closed-loop CMP |
//! | `ablations` | DESIGN.md §8 | ring size, ejection bandwidth, fairness policy |
//! | `swmr`      | §II-B     | handshake vs partitioned credits on an SWMR fabric |
//! | `mesh_vs_ring` | §II-C  | electrical 2D-mesh baseline vs the photonic ring |
//! | `fig11`     | Fig. 11   | credit sensitivity (a–e) and setaside-size study (f) |
//! | `resilience` | DESIGN.md §7 | fault-rate sweep: handshake recovery vs credit-leak collapse |
//! | `fairness`  | DESIGN.md §16 | per-class Jain index vs load, with and without admission |
//!
//! `--quick` selects a reduced-fidelity pass (shorter windows, sparser
//! grids) used by CI-style smoke checks; the default is the full
//! experiment. `--svg <dir>` renders charts via [`plot`] and `--json <dir>`
//! writes structured results via [`export`]. The computation lives in
//! [`figures`] so integration tests can assert the paper's qualitative
//! claims on the same code the harnesses print from. The other
//! subcommands are tools: `pnoc fleet` runs a sweep, `pnoc serve` answers
//! NDJSON sweep requests, `pnoc obs` runs the observability demo, `pnoc
//! trace` handles PTRC traces and `pnoc perf` is the throughput gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::OnceLock;

use pnoc_fleet::Fleet;

pub mod export;
pub mod figures;
pub mod grids;
pub mod perf;
pub mod plot;
pub mod table;
pub mod trace_bench;

pub use figures::Fidelity;
pub use plot::PlotSpec;
pub use table::Table;

/// The process-wide work-stealing executor every harness sweep runs on.
///
/// Created lazily on first use with the default thread policy (`--threads`
/// override > `PNOC_THREADS` > detected parallelism, cgroup-quota-aware —
/// see [`pnoc_sim::sweep::default_threads`]). `pnoc` installs its
/// `--threads` count *before* a subcommand runs, so the override is
/// visible when the fleet spins up.
pub fn fleet() -> &'static Fleet {
    static FLEET: OnceLock<Fleet> = OnceLock::new();
    FLEET.get_or_init(Fleet::with_default_threads)
}
