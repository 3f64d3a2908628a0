//! # react-repro — REACT: Energy-Adaptive Buffering for Batteryless Systems
//!
//! A full-system reproduction of *"Energy-adaptive Buffering for Efficient,
//! Responsive, and Persistent Batteryless Systems"* (Williams & Hicks,
//! ASPLOS 2024). This facade crate re-exports the workspace crates:
//!
//! * [`units`] — typed physical quantities.
//! * [`circuit`] — capacitor / diode / switch / bank circuit models.
//! * [`traces`] — power traces, statistics, and seeded synthesis.
//! * [`env`](mod@env) — streaming stochastic environments (diurnal solar,
//!   Gilbert–Elliott RF, mobility schedules, energy attacks).
//! * [`harvest`] — harvester converter models and Ekho-style replay.
//! * [`mcu`] — MSP430-class MCU power model, gate, and peripherals.
//! * [`workloads`] — the DE / SC / RT / PF benchmarks and their substrates.
//! * [`buffers`] — static, REACT, Morphy, and extension buffer designs.
//! * [`telemetry`] — structured event tracing, step attribution, and
//!   timeline export for the simulation engine.
//! * [`core`] — the simulator, scenarios, experiment matrix, metrics, and
//!   reports.
//!
//! # Quickstart
//!
//! ```
//! use react_repro::prelude::*;
//!
//! // Run the Sense-and-Compute benchmark with REACT on the first 40 s
//! // of the RF Mobile trace.
//! let cell = Scenario::paper(
//!     PaperTrace::RfMobile,
//!     BufferKind::React,
//!     WorkloadKind::SenseCompute,
//! );
//! let outcome = Scenario { horizon: Seconds::new(40.0), ..cell }.run();
//! assert!(outcome.metrics.relative_conservation_error() < 1e-2);
//! ```

pub use react_buffers as buffers;
pub use react_circuit as circuit;
pub use react_core as core;
pub use react_env as env;
pub use react_harvest as harvest;
pub use react_mcu as mcu;
pub use react_telemetry as telemetry;
pub use react_traces as traces;
pub use react_units as units;
pub use react_workloads as workloads;

/// One-stop import for examples and downstream users.
pub mod prelude {
    pub use react_buffers::{BufferKind, EnergyBuffer};
    pub use react_core::{
        calib, find_scenario, scenario_registry, ExperimentMatrix, RunMetrics, RunOutcome,
        Scenario, Simulator, WorkloadKind,
    };
    pub use react_env::{PowerSource, TraceSource};
    pub use react_traces::{paper_trace, PaperTrace, PowerTrace, TraceStats};
    pub use react_units::prelude::*;
}
