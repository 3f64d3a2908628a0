//! The benchmarks and the trace × buffer matrix runner.

use rayon::prelude::*;
use react_buffers::BufferKind;
use react_traces::PaperTrace;
use react_units::Seconds;
use react_workloads::{
    DataEncryption, EventSchedule, PacketForward, RadioTransmit, SenseCompute, Workload,
};

use crate::calib;
use crate::metrics::RunOutcome;
use crate::scenario::Scenario;

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

    /// Instantiates the workload for an environment replayed for
    /// `horizon`: SC deadlines and PF Poisson arrivals span the horizon,
    /// with PF's arrival stream drawn from `seed`. Scenario runs build
    /// theirs through [`Scenario::build_workload`], which keys PF on a
    /// paper trace to that trace's own arrival stream.
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
        )
    }

    /// Runs a custom trace/buffer selection, each cell the
    /// [`Scenario::paper`] run of its (trace, buffer) pair. The trace ×
    /// buffer product fans out as one flat parallel work list so slow
    /// cells (long solar traces, REACT's fine-step controller) don't
    /// serialize behind per-trace barriers.
    pub fn run_with(workload: WorkloadKind, traces: &[PaperTrace], buffers: &[BufferKind]) -> Self {
        let jobs: Vec<(PaperTrace, BufferKind)> = traces
            .iter()
            .flat_map(|&t| buffers.iter().map(move |&b| (t, b)))
            .collect();
        let cells: Vec<MatrixCell> = jobs
            .par_iter()
            .map(|&(trace, buffer)| MatrixCell {
                buffer,
                outcome: Scenario::paper(trace, buffer, workload).run(),
            })
            .collect();
        let mut cells = cells.into_iter();
        let rows = traces
            .iter()
            .map(|&trace| MatrixRow {
                trace,
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
    use crate::Simulator;
    use react_harvest::{Converter, PowerReplay};
    use react_traces::PowerTrace;
    use react_units::Watts;

    #[test]
    fn workload_kinds_have_labels() {
        assert_eq!(WorkloadKind::DataEncryption.label(), "DE");
        assert_eq!(WorkloadKind::PacketForward.label(), "PF");
        assert_eq!(WorkloadKind::ALL.len(), 4);
    }

    #[test]
    fn build_streaming_constructs_each_workload() {
        for kind in WorkloadKind::ALL {
            let w = kind.build_streaming(Seconds::new(10.0), 7);
            assert_eq!(w.ops_completed(), 0);
            assert_eq!(w.name(), kind.label());
        }
    }

    #[test]
    fn bare_engine_runs_on_short_trace() {
        let trace = PowerTrace::constant(
            "t",
            Watts::from_milli(10.0),
            Seconds::new(20.0),
            Seconds::new(0.1),
        );
        let workload = WorkloadKind::DataEncryption.build_streaming(trace.duration(), 0);
        let replay = PowerReplay::new(trace, Converter::ideal());
        let out = Simulator::new(replay, BufferKind::Static770uF.build(), workload).run();
        assert!(out.metrics.ops_completed > 0);
    }

    #[test]
    fn matrix_runs_small_selection() {
        // Correctness of results is covered elsewhere.
        let m = ExperimentMatrix::run_with(
            WorkloadKind::DataEncryption,
            &[PaperTrace::RfCart],
            &[BufferKind::Static770uF, BufferKind::React],
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
