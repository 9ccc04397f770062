//! stap-serve: a multi-tenant mission scheduler for parallel pipelined STAP.
//!
//! The paper sizes ONE pipeline against ONE machine; a deployed radar site
//! runs a *fleet* — several missions (surveillance doctrines, CPI budgets,
//! latency SLAs) sharing a node pool and one striped file system. This crate
//! adds that serving layer on top of the existing stack:
//!
//! - [`mission`] — mission specs (file- or stream-fed), typed admission
//!   errors, per-mission reports, and the fleet table.
//! - [`script`] — timed workload scripts (`at <secs> submit …`) driving both
//!   real and simulated fleets.
//! - [`arrivals`] — elastic mission arrivals (Poisson, bursty MMPP-2,
//!   diurnal) generating workload scripts deterministically from a seed.
//! - [`placement`] — node-pool accounting and per-stripe-server load, the
//!   contention-adjusted read estimates.
//! - [`scheduler`] — planner-backed admission ([`stap_planner`] searched
//!   inside the currently-free budget), a bounded priority queue with
//!   backpressure, and mission-conservation counters.
//! - [`fleet`] — the one fleet event loop behind `serve` and `serve --sim`:
//!   it fires script events, submits, cancels and rejects through the
//!   scheduler, orders script events and mission wake-ups on one
//!   time-and-sequence queue, and builds the shared [`FleetReport`]. Two
//!   backends run the missions it dispatches:
//!   - [`executor`] — real [`stap_core`] pipelines on worker threads under
//!     watchdogs, on the wall clock (production) or a virtual clock
//!     (deterministic conformance), merging their phase spans into one
//!     mission-tagged Chrome trace;
//!   - [`sim`] — DES capacity mode: each CPI's reads queue on shared
//!     multi-server FCFS stripe resources, predicting queue wait,
//!     slowdown, and SLA hit-rate without running the pipelines.
//! - [`experiments`] — the multi-tenant contention study backing
//!   `results/serve_contention.txt`.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod arrivals;
pub mod executor;
pub mod experiments;
pub mod fleet;
pub mod mission;
pub mod placement;
pub mod scheduler;
pub mod script;
pub mod sim;

pub use arrivals::{generate_script, ArrivalSpec};
pub use executor::{run_fleet, run_fleet_with_clock};
pub use fleet::{FleetReport, StoreUse};
pub use mission::{
    fleet_table, machine_profile, AdmissionError, MissionOutcome, MissionReport, MissionSource,
    MissionSpec, PlanChoice, SlaVerdict,
};
pub use placement::{NodePool, StripeLoadTracker};
pub use scheduler::{Counters, Dispatch, FleetFault, Scheduler, ServeConfig};
pub use script::{ScriptAction, ScriptError, ScriptEvent, WorkloadScript};
pub use sim::{simulate_fleet, ReadModel, SimConfig, SimFleetReport};
