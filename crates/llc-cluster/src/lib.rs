//! The paper's case study: a three-level hierarchical LLC power manager
//! for a heterogeneous web-server cluster.
//!
//! Structure (paper Fig. 2):
//!
//! * [`L0Controller`] — one per computer. Every `T_L0 = 30 s` it picks the
//!   processor frequency by exhaustive lookahead (`N_L0 = 3`) over the
//!   analytic queue model of eqns. (5)–(7), minimizing
//!   `Q·ε + R·(a + φ²)` with `Q = 100, R = 1`.
//! * [`L1Controller`] — one per module of `m` computers. Every
//!   `T_L1 = 120 s` it decides the on/off vector `{α_j}` and the load
//!   split `{γ_j}` (quantum 0.05) by bounded search, consulting the
//!   **abstraction map `g`** ([`AbstractionMap`]) learned offline from the
//!   L0 controller, averaging candidate costs over the arrival-rate band
//!   `{λ̂−δ, λ̂, λ̂+δ}` (chattering mitigation) and charging `W = 8` per
//!   switch-on.
//! * [`L2Controller`] — one per cluster. Every `T_L2 = 120 s` it splits the
//!   global arrivals across modules (`{γ_i}`, quantum 0.1) using per-module
//!   regression trees ([`ModuleCostModel`]) trained by simulating the full
//!   L1+L0 module.
//!
//! [`HierarchicalPolicy`] wires the three levels together behind the
//! [`ClusterPolicy`] trait; [`ThresholdPolicy`] and [`AlwaysMaxPolicy`]
//! are the comparison baselines; [`Experiment`] drives any policy against
//! the [`llc_sim`] plant fed by an [`llc_workload`] trace and records the
//! series behind every figure of the evaluation. The plant half of that
//! loop is one type, [`Plant`], which every driver steps one window at a
//! time and which actuates only through its [`Reconciler`]. A
//! [`RunSpec`] names each run of the evaluation (family, size, seeds)
//! and a [`Preset`] each policy stack it is scored under.
//!
//! The forecasts every level steps on are in-crate: the arrival-rate
//! [`LocalLinearTrend`] (the paper's "ARIMA model implemented by a Kalman
//! filter", a level+slope model whose covariance recursion reads no data,
//! so it runs once per process into a gain table), the processing-time
//! [`Ewma`] (`π = 0.1`, also the L1's band half-width `δ`) and fig. 4's
//! [`AccuracyStats`]. The general linear-Gaussian filter over heap
//! matrices the trend model first ran on compiles under `cfg(test)` only
//! (`kalman.rs`, `matrix.rs`), as the oracle the kernel is held
//! bit-identical to (`trend::tests`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod agent;
mod baselines;
mod builder;
mod config;
mod control;
mod error_stats;
mod ewma;
mod experiment;
mod hierarchy;
#[cfg(test)]
mod kalman;
mod l0;
mod l1;
mod l2;
#[cfg(test)]
mod matrix;
mod policy;
mod profiles;
mod run;
mod split;
mod trend;

pub use agent::{Plant, ReconcileReport, Reconciler};
pub use baselines::{AlwaysMaxPolicy, ThresholdPolicy};
pub use builder::{PolicyBuilder, RetrainConfig};
pub use config::{cluster_of, paper_cluster_16, single_module, ScenarioConfig, MAX_SINGLE_MODULE};
pub use control::{
    Cadence, ControlPlane, Directive, DirectiveEmit, DirectiveKind, IngestError, LatencyStats,
    Level, MemberTelemetry, MetricsSnapshot, ModuleObservation, ObservationIngest, PolicyMetrics,
    StepReport, TransportMetrics, INGEST_HORIZON_TICKS,
};
pub use error_stats::AccuracyStats;
pub use ewma::Ewma;
pub use experiment::{Experiment, ExperimentLog, ExperimentSummary, SimAdapter, TickRecord};
pub use hierarchy::{FaultToleranceConfig, HierarchicalPolicy, LevelOverhead};
pub use l0::{L0Config, L0Controller, L0Decision, QueueModel};
pub use l1::{
    AbstractionMap, GEntry, L1Config, L1Controller, L1Decision, LearnSpec, MapBackend, MemberSpec,
};
pub use l2::{L2Config, L2Controller, L2Decision, ModuleCostModel, ModuleLearnSpec, ModuleState};
pub use policy::{Action, ClusterPolicy, Observations};
pub use profiles::{ComputerProfile, FrequencyProfile};
pub use run::{Family, Preset, RunSpec};
pub use trend::LocalLinearTrend;
