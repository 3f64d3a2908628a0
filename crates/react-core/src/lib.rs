//! Simulation engine and experiment harness for the REACT reproduction.
//!
//! This crate assembles the substrates — traces, harvester, buffers,
//! MCU, workloads — into the paper's testbed (§4) and drives the
//! evaluation (§5):
//!
//! * [`Simulator`] — the simulation loop (harvester replay → buffer
//!   physics → power gate → MCU → workload), generic over buffer and
//!   workload, with two kernels: the fixed-`dt` reference and the
//!   default adaptive kernel that integrates MCU-off charge phases
//!   analytically ([`KernelMode`]).
//! * [`scenario`] — the named scenario registry and the one recipe that
//!   turns an environment × buffer × workload into a [`Simulator`]
//!   ([`Scenario::simulator`]): streaming `react-env` environments run
//!   week-long horizons segment by segment, and [`Scenario::paper`]
//!   puts a buffer and benchmark on one of the paper's library traces.
//! * [`ExperimentMatrix`] — the trace × buffer matrix behind Tables 2,
//!   4, and 5, every cell a [`Scenario::paper`] run in parallel.
//! * [`RunMetrics`] / [`RunOutcome`] — what each run measures.
//! * [`fom`] — figures of merit and REACT-normalized scores (Fig. 7).
//! * [`report`] — text/CSV table rendering for the report tables.
//! * [`calib`] — every calibration constant, with provenance.
//!
//! # Examples
//!
//! ```
//! use react_core::{Scenario, WorkloadKind};
//! use react_buffers::BufferKind;
//! use react_traces::PaperTrace;
//!
//! // One cell of Table 2 (DE on RF Cart with the 770 µF buffer), cut to
//! // its first 30 s.
//! let cell = Scenario::paper(
//!     PaperTrace::RfCart,
//!     BufferKind::Static770uF,
//!     WorkloadKind::DataEncryption,
//! );
//! let out = Scenario { horizon: react_units::Seconds::new(30.0), ..cell }.run();
//! assert!(out.metrics.relative_conservation_error() < 1e-2);
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod audit;
pub mod calib;
pub mod fleet;
pub mod fom;
mod matrix;
mod metrics;
pub mod report;
pub mod scenario;
pub mod scenario_report;
mod sim;
pub mod sweep;

pub use audit::{AuditConfig, AuditSnapshot, InvariantAuditor};
pub use fleet::{
    compare_fleet_reports, run_fleet, run_shard, FleetAggregate, FleetBins, FleetReport,
    FleetRunOptions, FleetRunResult, FleetSim, FleetSpec, FleetSummary, Histogram, NodeStats,
    PoisonedNode, TimedOutNode,
};
pub use matrix::{ExperimentMatrix, MatrixCell, MatrixRow, WorkloadKind};
pub use metrics::{LevelDwell, RunMetrics, RunOutcome, VoltageSample};
pub use scenario::{
    cell_id, fault_scenario_registry, find_scenario, resolve_cell, scenario_registry, EnvKind,
    Scenario,
};
pub use scenario_report::{
    build_report, compare_reports, expand_cells, fault_cells, merged_attribution,
    render_attribution, render_class_sinks, report_scenarios, CellAttribution, PoisonedCell,
    ResilienceRow, ScenarioCell, ScenarioReport, SurvivalRow,
};
pub use sim::{ConstantLoad, KernelMode, SimCore, SimError, Simulator};
