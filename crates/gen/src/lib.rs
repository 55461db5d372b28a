//! Workload generators for the rSLPA reproduction.
//!
//! * [`lfr`] — the LFR benchmark with overlapping ground-truth communities
//!   (Lancichinetti & Fortunato, Phys. Rev. E 80, 2009 — the paper's \[19\]),
//!   used for every synthetic-accuracy experiment (Figs. 7a–7f, Table I).
//! * [`webgraph`] — R-MAT and Barabási–Albert generators standing in for
//!   the `eu-2015-tpd` crawl (Table II, Figs. 8–9); its module docs give
//!   the substitution argument.
//! * [`gn`] — the planted-partition GN benchmark (Girvan & Newman 2002),
//!   cheap known-truth graphs for tests.
//! * [`er`] — Erdős–Rényi `G(n, m)` graphs for null-model tests and the
//!   complexity experiments.
//! * [`edits`] — dynamic workloads: uniform half-insert/half-delete batches
//!   exactly as in §V-B1, plus targeted intra/inter-community variants.
//! * [`adversarial`] — named break-it churn scenarios (flash crowds,
//!   split/merge storms, cascading deletions, degree-skewed bursts) with
//!   per-window ground-truth tracking.
//! * [`powerlaw`] — bounded discrete power-law sampling shared by LFR and
//!   the web-graph generators.
//!
//! # Example
//!
//! ```
//! use rslpa_gen::edits::uniform_batch;
//! use rslpa_gen::gn::{gn_benchmark, GnParams};
//!
//! let (graph, truth) = gn_benchmark(&GnParams::default());
//! assert_eq!(graph.num_vertices(), 128);
//! assert_eq!(truth.len(), 4);
//! // Dynamic workload: a valid half-insert/half-delete batch (§V-B1).
//! let batch = uniform_batch(&graph, 20, 7);
//! assert!(batch.validate(&graph).is_ok());
//! assert!(!batch.is_empty() && batch.len() <= 20);
//! ```

pub mod adversarial;
pub mod edits;
pub mod er;
pub mod gn;
pub mod lfr;
pub mod powerlaw;
pub mod webgraph;

pub use adversarial::{
    named_scenarios, CascadeDelete, ChurnScenario, FlashCrowd, GroundTruthTrack, ScenarioWindow,
    SkewBurst, SplitMergeStorm,
};
pub use edits::{uniform_batch, EditWorkload};
pub use er::erdos_renyi;
pub use gn::{gn_benchmark, GnParams};
pub use lfr::{LfrGraph, LfrParams};
pub use powerlaw::PowerLaw;
pub use webgraph::{barabasi_albert, rmat, RmatParams};
