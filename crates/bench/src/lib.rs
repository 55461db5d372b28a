//! Experiment harness: regenerates every table and figure of the paper.
//!
//! The `repro` binary dispatches to one module per experiment family; its
//! `EXPERIMENTS` list is the experiment index (`repro` with no arguments
//! prints it). All experiments run at a laptop-friendly default scale that
//! preserves the paper's *shapes* (who wins, by what factor, where curves
//! bend); `--paper-scale` restores the original sizes where feasible.

pub mod exp_ablations;
pub mod exp_churn;
pub mod exp_dynamic;
pub mod exp_scale;
pub mod exp_serve;
pub mod exp_synthetic;
pub mod exp_trace;
pub mod exp_voting;
pub mod exp_web;
pub mod report;
pub mod scale;

pub use report::Table;
pub use scale::Scale;

/// Cores available to this run, as recorded in every benchmark JSON's
/// `config.cores` field — multi-core reruns of `repro serve*` are
/// self-describing (a 1-core sweep measures
/// coordination overhead + equivalence, not parallel speedup).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
