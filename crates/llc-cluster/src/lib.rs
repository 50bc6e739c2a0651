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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agent;
mod baselines;
mod builder;
mod config;
mod control;
mod experiment;
mod hierarchy;
mod l0;
mod l1;
mod l2;
mod policy;
mod profiles;
mod run;
mod split;

pub use agent::{Plant, ReconcileReport, Reconciler, MAX_WINDOW_ARRIVALS};
pub use baselines::{AlwaysMaxPolicy, ThresholdPolicy};
pub use builder::{PolicyBuilder, RetrainConfig};
pub use config::{
    cluster_of, paper_cluster_16, paper_cluster_20, single_module, ScenarioConfig,
    MAX_SINGLE_MODULE,
};
pub use control::{
    Cadence, ControlPlane, Directive, DirectiveEmit, DirectiveKind, IngestError, LatencyStats,
    Level, MemberTelemetry, MetricsSnapshot, ModuleObservation, ObservationIngest, PolicyMetrics,
    StepReport, TransportMetrics, INGEST_HORIZON_TICKS, OUTBOX_CAPACITY,
};
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
