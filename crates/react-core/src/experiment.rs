//! Experiment definitions and the trace × buffer matrix runner.

use std::sync::Arc;

use rayon::prelude::*;
use react_buffers::BufferKind;
use react_harvest::{Converter, PowerReplay};
use react_traces::{paper_trace, PaperTrace, PowerTrace};
use react_units::Seconds;
use react_workloads::{
    DataEncryption, EventSchedule, PacketForward, RadioTransmit, SenseCompute, Workload,
};

use crate::calib;
use crate::metrics::RunOutcome;
use crate::sim::{KernelMode, Simulator};

/// The four benchmarks of §4.2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// DE: continuous AES-128.
    DataEncryption,
    /// SC: periodic microphone sensing.
    SenseCompute,
    /// RT: atomic radio bursts.
    RadioTransmit,
    /// PF: receive-and-forward.
    PacketForward,
}

impl WorkloadKind {
    /// All four benchmarks in the paper's order.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::DataEncryption,
        WorkloadKind::SenseCompute,
        WorkloadKind::RadioTransmit,
        WorkloadKind::PacketForward,
    ];

    /// Table-style label.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::DataEncryption => "DE",
            WorkloadKind::SenseCompute => "SC",
            WorkloadKind::RadioTransmit => "RT",
            WorkloadKind::PacketForward => "PF",
        }
    }

    /// Instantiates the workload for a given trace. PF derives its
    /// packet-arrival schedule from the trace identity (rate and seed
    /// fixed per trace, as the paper's external event generator is).
    pub fn build(self, trace: &PowerTrace, identity: Option<PaperTrace>) -> Box<dyn Workload> {
        match self {
            WorkloadKind::DataEncryption => Box::new(DataEncryption::new()),
            WorkloadKind::SenseCompute => {
                // Deadlines run through trace + drain time.
                let horizon = trace.duration() + calib::MAX_DRAIN_TIME;
                Box::new(SenseCompute::new(horizon))
            }
            WorkloadKind::RadioTransmit => Box::new(RadioTransmit::new()),
            WorkloadKind::PacketForward => {
                let (rate, seed) = match identity {
                    Some(p) => (calib::pf_arrival_rate(p), calib::pf_arrival_seed(p)),
                    None => (0.05, 0xAF_2024_FFFF),
                };
                let arrivals = EventSchedule::poisson(rate, trace.duration(), seed);
                Box::new(PacketForward::new(arrivals))
            }
        }
    }

    /// Instantiates the workload for a streaming environment replayed
    /// for `horizon` of wall-clock time (no trace to derive schedules
    /// from): SC deadlines and PF Poisson arrivals span the horizon,
    /// with PF's arrival stream drawn from `seed`.
    pub fn build_streaming(self, horizon: Seconds, seed: u64) -> Box<dyn Workload> {
        match self {
            WorkloadKind::DataEncryption => Box::new(DataEncryption::new()),
            WorkloadKind::SenseCompute => {
                Box::new(SenseCompute::new(horizon + calib::MAX_DRAIN_TIME))
            }
            WorkloadKind::RadioTransmit => Box::new(RadioTransmit::new()),
            WorkloadKind::PacketForward => {
                let arrivals = EventSchedule::poisson(0.05, horizon, seed);
                Box::new(PacketForward::new(arrivals))
            }
        }
    }
}

/// A single (buffer, workload) experiment, run against any trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Experiment {
    /// Buffer design under test.
    pub buffer: BufferKind,
    /// Benchmark application.
    pub workload: WorkloadKind,
}

impl Experiment {
    /// Creates the experiment description.
    pub fn new(buffer: BufferKind, workload: WorkloadKind) -> Self {
        Self { buffer, workload }
    }

    /// Runs against a trace with default settings (1 ms fine steps,
    /// adaptive kernel, ideal converter — Table 3 powers are already at
    /// the buffer rail).
    pub fn run(&self, trace: &PowerTrace) -> RunOutcome {
        self.run_configured(trace, None, calib::DEFAULT_DT, None)
    }

    /// Runs against one of the paper's library traces (PF arrival rates
    /// keyed to the trace identity).
    pub fn run_paper_trace(&self, which: PaperTrace) -> RunOutcome {
        let trace = paper_trace(which);
        self.run_configured(&trace, Some(which), calib::DEFAULT_DT, None)
    }

    /// Fully configured run with the default (adaptive) kernel.
    pub fn run_configured(
        &self,
        trace: &PowerTrace,
        identity: Option<PaperTrace>,
        dt: Seconds,
        probe: Option<Seconds>,
    ) -> RunOutcome {
        self.run_shared(
            &Arc::new(trace.clone()),
            identity,
            dt,
            probe,
            KernelMode::Adaptive,
        )
    }

    /// Fully configured run on a shared trace — no per-run trace clone,
    /// explicit kernel. The parallel matrix and sweep runners go through
    /// here.
    pub fn run_shared(
        &self,
        trace: &Arc<PowerTrace>,
        identity: Option<PaperTrace>,
        dt: Seconds,
        probe: Option<Seconds>,
        kernel: KernelMode,
    ) -> RunOutcome {
        let replay = PowerReplay::new(Arc::clone(trace), Converter::ideal());
        let workload = self.workload.build(trace, identity);
        let mut sim = Simulator::new(replay, self.buffer.build(), workload)
            .with_timestep(dt)
            .with_kernel(kernel);
        if let Some(interval) = probe {
            sim = sim.with_probe(interval);
        }
        sim.run()
    }
}

/// One cell of a results matrix.
#[derive(Clone, Debug)]
pub struct MatrixCell {
    /// Which buffer produced the result.
    pub buffer: BufferKind,
    /// The run outcome.
    pub outcome: RunOutcome,
}

/// One row (a trace) of a results matrix.
#[derive(Clone, Debug)]
pub struct MatrixRow {
    /// The trace evaluated.
    pub trace: PaperTrace,
    /// Results per buffer, in [`BufferKind::PAPER_COLUMNS`] order unless
    /// custom columns were requested.
    pub cells: Vec<MatrixCell>,
}

/// The full trace × buffer matrix for one workload — the shape of
/// Tables 2, 4, and 5.
#[derive(Clone, Debug)]
pub struct ExperimentMatrix {
    /// Benchmark the matrix covers.
    pub workload: WorkloadKind,
    /// One row per trace.
    pub rows: Vec<MatrixRow>,
}

impl ExperimentMatrix {
    /// Runs the workload across all five evaluation traces and the five
    /// paper buffer columns, every (trace, buffer) cell in parallel.
    pub fn run(workload: WorkloadKind) -> Self {
        Self::run_with(
            workload,
            &PaperTrace::EVALUATION,
            &BufferKind::PAPER_COLUMNS,
            calib::DEFAULT_DT,
        )
    }

    /// Runs a custom trace/buffer selection on the adaptive kernel.
    /// Each trace is synthesized once and shared through an [`Arc`] by
    /// every cell that replays it; the trace × buffer product fans out
    /// as one flat parallel work list so slow cells (long solar traces,
    /// REACT's fine-step controller) don't serialize behind per-trace
    /// barriers.
    pub fn run_with(
        workload: WorkloadKind,
        traces: &[PaperTrace],
        buffers: &[BufferKind],
        dt: Seconds,
    ) -> Self {
        let shared: Vec<(PaperTrace, Arc<PowerTrace>)> = traces
            .iter()
            .map(|&which| (which, Arc::new(paper_trace(which))))
            .collect();
        let jobs: Vec<(usize, BufferKind)> = (0..shared.len())
            .flat_map(|i| buffers.iter().map(move |&b| (i, b)))
            .collect();
        let run_cell = |&(i, buffer): &(usize, BufferKind)| {
            let (which, ref trace) = shared[i];
            MatrixCell {
                buffer,
                outcome: Experiment::new(buffer, workload).run_shared(
                    trace,
                    Some(which),
                    dt,
                    None,
                    KernelMode::Adaptive,
                ),
            }
        };
        let cells: Vec<MatrixCell> = jobs.par_iter().map(run_cell).collect();
        let mut cells = cells.into_iter();
        let rows = shared
            .iter()
            .map(|&(which, _)| MatrixRow {
                trace: which,
                cells: cells.by_ref().take(buffers.len()).collect(),
            })
            .collect();
        Self { workload, rows }
    }

    /// Looks up a cell.
    pub fn cell(&self, trace: PaperTrace, buffer: BufferKind) -> Option<&MatrixCell> {
        self.rows
            .iter()
            .find(|r| r.trace == trace)?
            .cells
            .iter()
            .find(|c| c.buffer == buffer)
    }

    /// Mean primary-ops count per buffer across traces (the tables'
    /// "Mean" row).
    pub fn mean_ops(&self) -> Vec<(BufferKind, f64)> {
        let Some(first) = self.rows.first() else {
            return Vec::new();
        };
        first
            .cells
            .iter()
            .map(|c| c.buffer)
            .map(|buffer| {
                let total: f64 = self
                    .rows
                    .iter()
                    .filter_map(|r| r.cells.iter().find(|c| c.buffer == buffer))
                    .map(|c| c.outcome.metrics.ops_completed as f64)
                    .sum();
                (buffer, total / self.rows.len() as f64)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use react_units::Watts;

    #[test]
    fn workload_kinds_have_labels() {
        assert_eq!(WorkloadKind::DataEncryption.label(), "DE");
        assert_eq!(WorkloadKind::PacketForward.label(), "PF");
        assert_eq!(WorkloadKind::ALL.len(), 4);
    }

    #[test]
    fn build_constructs_each_workload() {
        let trace = PowerTrace::constant(
            "t",
            Watts::from_milli(1.0),
            Seconds::new(10.0),
            Seconds::new(0.1),
        );
        for kind in WorkloadKind::ALL {
            let w = kind.build(&trace, Some(PaperTrace::RfCart));
            assert_eq!(w.ops_completed(), 0);
            assert_eq!(w.name(), kind.label());
        }
    }

    #[test]
    fn experiment_runs_on_short_trace() {
        let trace = PowerTrace::constant(
            "t",
            Watts::from_milli(10.0),
            Seconds::new(20.0),
            Seconds::new(0.1),
        );
        let out =
            Experiment::new(BufferKind::Static770uF, WorkloadKind::DataEncryption).run(&trace);
        assert!(out.metrics.ops_completed > 0);
    }

    #[test]
    fn matrix_runs_small_selection() {
        // Coarse timestep keeps this test quick; correctness of results
        // is covered elsewhere.
        let m = ExperimentMatrix::run_with(
            WorkloadKind::DataEncryption,
            &[PaperTrace::RfCart],
            &[BufferKind::Static770uF, BufferKind::React],
            Seconds::new(0.002),
        );
        assert_eq!(m.rows.len(), 1);
        assert_eq!(m.rows[0].cells.len(), 2);
        assert!(m.cell(PaperTrace::RfCart, BufferKind::React).is_some());
        assert!(m.cell(PaperTrace::RfCart, BufferKind::Morphy).is_none());
        let means = m.mean_ops();
        assert_eq!(means.len(), 2);
        assert!(means.iter().all(|(_, v)| *v > 0.0));
    }
}
