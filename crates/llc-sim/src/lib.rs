//! Discrete-event simulator for DVFS-capable server clusters.
//!
//! This crate is the *plant* of the reproduction: the paper evaluates its
//! hierarchical controller against a simulated computer cluster (Fig. 1(a))
//! where a global buffer dispatches requests to computers, each processing
//! them in first-come first-served order at a processor frequency chosen
//! from a finite set. We implement that cluster with:
//!
//! * [`Server`]: a FCFS single-server queue whose service rate scales with
//!   the frequency factor `φ = u/u_max` (a request with demand `c` seconds
//!   at full speed takes `c/φ` at frequency `u`);
//! * [`MachineSlabs`]: every computer's server, power-state machine
//!   (`Off → Booting → On → Draining → Off`, with the paper's 2-minute
//!   switch-on **dead time**) and energy meter integrating `ψ = a + φ²`,
//!   stored struct-of-arrays so a 1000-machine sweep walks flat slabs
//!   ([`ComputerRef`] is the per-machine read view);
//! * [`WeightedRouter`]: deterministic deficit-round-robin dispatching that
//!   realizes the fractions `γ` decided by the controllers;
//! * [`ClusterSim`]: computers partitioned into modules behind a two-level
//!   dispatcher hierarchy, and per-window metrics that the controllers
//!   sample every 30 s.
//!
//! There is one engine. Arrivals are buffered — one by one
//! ([`ClusterSim::schedule_arrival`]) or as analytically routed window
//! batches ([`ClusterSim::inject_batch`]) — and [`ClusterSim::run_until`]
//! routes what is due, then sweeps each computer's own timeline of
//! boot-done, completion and arrival events to the target time. Routing
//! never reads machine state, so once a request has a computer the
//! computers are independent and the sweep can shard across threads.
//!
//! The simulator is fully deterministic: each computer is offered its
//! arrivals in `(time, submission order)`, simultaneous events on one
//! computer fire in a fixed order, routing is deficit-based rather than
//! randomized, and results are bit-identical for any thread count.
//!
//! # Example
//!
//! ```
//! use llc_sim::{ClusterSim, ClusterConfig, ComputerConfig, PowerModel};
//!
//! # fn main() -> Result<(), llc_sim::SimError> {
//! let config = ClusterConfig {
//!     modules: vec![vec![
//!         // One computer, instant boot for the example's sake.
//!         ComputerConfig::new(vec![0.5e9, 1.0e9], PowerModel::new(0.75, 8.0), 0.0),
//!     ]],
//! };
//! let mut sim = ClusterSim::new(config);
//! sim.power_on(0);
//! sim.set_module_weights(&[1.0])?;
//! sim.set_computer_weights(0, &[1.0])?;
//! sim.schedule_arrival(0.5, 0.015)?; // a 15 ms request at t = 0.5 s
//! sim.run_until(10.0)?;
//! assert_eq!(sim.computer(0).completed(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod dispatch;
mod machines;
mod metrics;
mod power;
mod request;
mod server;

pub use cluster::{ClusterConfig, ClusterSim, ComputerConfig, SimError};
pub use dispatch::WeightedRouter;
pub use machines::{Admission, ComputerRef, MachineSlabs, PowerState};
pub use metrics::{EnergyMeter, WindowStats};
pub use power::PowerModel;
pub use request::Request;
pub use server::Server;
