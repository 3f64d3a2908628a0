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
//! * [`Experiment`] / [`ExperimentMatrix`] — one (buffer, workload) pair
//!   against a trace, or the full trace × buffer matrix behind
//!   Tables 2, 4, and 5 (every cell in parallel, traces shared via
//!   `Arc`).
//! * [`scenario`] — the named scenario registry: streaming `react-env`
//!   environments × buffer × workload × horizon, run through the same
//!   parallel engine (week-long horizons stream segment by segment,
//!   never materializing samples).
//! * [`RunMetrics`] / [`RunOutcome`] — what each run measures.
//! * [`fom`] — figures of merit and REACT-normalized scores (Fig. 7).
//! * [`report`] — text/CSV table rendering for the bench harnesses.
//! * [`calib`] — every calibration constant, with provenance.
//!
//! # Examples
//!
//! ```
//! use react_core::{Experiment, WorkloadKind};
//! use react_buffers::BufferKind;
//! use react_traces::{paper_trace, PaperTrace};
//!
//! // One cell of Table 2: DE on RF Cart with the 770 µF buffer.
//! let trace = paper_trace(PaperTrace::RfCart).truncated(react_units::Seconds::new(30.0));
//! let out = Experiment::new(BufferKind::Static770uF, WorkloadKind::DataEncryption)
//!     .run(&trace);
//! assert!(out.metrics.relative_conservation_error() < 1e-2);
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod audit;
pub mod calib;
mod experiment;
pub mod fleet;
pub mod fom;
mod metrics;
pub mod report;
pub mod scenario;
pub mod scenario_report;
mod sim;
pub mod sweep;

pub use audit::{AuditConfig, AuditSnapshot, InvariantAuditor};
pub use experiment::{Experiment, ExperimentMatrix, MatrixCell, MatrixRow, WorkloadKind};
pub use fleet::{
    compare_fleet_reports, run_fleet, run_shard, run_shard_attributed, FleetAggregate, FleetBins,
    FleetCheckpoint, FleetReport, FleetRunOptions, FleetRunResult, FleetSim, FleetSpec,
    FleetSummary, FleetTolerances, Histogram, NodeStats, PoisonedNode, ShardEntry, TimedOutNode,
};
pub use metrics::{LevelDwell, RunMetrics, RunOutcome, VoltageSample};
pub use scenario::{
    cell_id, fault_scenario_registry, find_scenario, resolve_cell, scenario_registry, EnvKind,
    Scenario,
};
pub use scenario_report::{
    build_report, compare_reports, expand_cells, fault_cells, merged_attribution,
    render_attribution, render_class_sinks, report_scenarios, CellAttribution, PoisonedCell,
    ResilienceRow, ScenarioCell, ScenarioReport, SurvivalRow, Tolerances,
};
pub use sim::{ConstantLoad, KernelMode, SimCore, SimError, Simulator};
