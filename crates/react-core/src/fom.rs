//! Figures of merit and normalization (Fig. 7).
//!
//! The paper quantifies each benchmark with a figure of merit — completed
//! operations for DE/SC/RT, packets handled for PF — and plots each
//! buffer's performance normalized to REACT, averaged across traces.

use react_buffers::BufferKind;
use react_units::Seconds;

use crate::matrix::{ExperimentMatrix, WorkloadKind};
use crate::metrics::RunMetrics;

/// The benchmark figure of merit for one run.
pub fn figure_of_merit(workload: WorkloadKind, metrics: &RunMetrics) -> f64 {
    match workload {
        WorkloadKind::DataEncryption | WorkloadKind::SenseCompute | WorkloadKind::RadioTransmit => {
            metrics.ops_completed as f64
        }
        // PF: packets received plus packets forwarded (both matter in
        // Table 5).
        WorkloadKind::PacketForward => (metrics.aux_completed + metrics.ops_completed) as f64,
    }
}

/// The figure of merit as a rate per deployed hour, so cells with
/// hour-, day-, and week-long horizons land on one comparable scale
/// (the drain tail past the horizon still counts toward the FoM but
/// not toward the denominator — it is part of the same deployment).
pub fn fom_per_hour(workload: WorkloadKind, metrics: &RunMetrics, horizon: Seconds) -> f64 {
    if horizon.get() <= 0.0 {
        return 0.0;
    }
    figure_of_merit(workload, metrics) / (horizon.get() / 3600.0)
}

/// One buffer's normalized score for a benchmark.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NormalizedScore {
    /// Buffer design.
    pub buffer: BufferKind,
    /// Mean over traces of (FoM / REACT's FoM on the same trace).
    pub score: f64,
}

/// Normalizes a matrix to REACT per trace and averages across traces —
/// exactly Fig. 7's bars for one benchmark.
pub fn normalize_to_react(matrix: &ExperimentMatrix) -> Vec<NormalizedScore> {
    let buffers: Vec<BufferKind> = matrix
        .rows
        .first()
        .map(|r| r.cells.iter().map(|c| c.buffer).collect())
        .unwrap_or_default();

    buffers
        .iter()
        .map(|&buffer| {
            let mut sum = 0.0;
            let mut count = 0usize;
            for row in &matrix.rows {
                let react = row
                    .cells
                    .iter()
                    .find(|c| c.buffer == BufferKind::React)
                    .map(|c| figure_of_merit(matrix.workload, &c.outcome.metrics))
                    .unwrap_or(0.0);
                let this = row
                    .cells
                    .iter()
                    .find(|c| c.buffer == buffer)
                    .map(|c| figure_of_merit(matrix.workload, &c.outcome.metrics))
                    .unwrap_or(0.0);
                if react > 0.0 {
                    sum += this / react;
                    count += 1;
                }
            }
            NormalizedScore {
                buffer,
                score: if count > 0 { sum / count as f64 } else { 0.0 },
            }
        })
        .collect()
}

/// REACT's mean improvement over `baseline` across benchmarks, from a
/// set of per-benchmark normalized scores: `1/score − 1` averaged.
pub fn mean_improvement_over(
    scores_per_benchmark: &[Vec<NormalizedScore>],
    baseline: BufferKind,
) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for scores in scores_per_benchmark {
        if let Some(s) = scores.iter().find(|s| s.buffer == baseline) {
            if s.score > 0.0 {
                sum += 1.0 / s.score - 1.0;
                n += 1;
            }
        }
    }
    if n > 0 {
        sum / n as f64
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{MatrixCell, MatrixRow};
    use crate::metrics::RunOutcome;
    use react_traces::PaperTrace;

    fn outcome(ops: u64, aux: u64) -> RunOutcome {
        RunOutcome {
            metrics: RunMetrics {
                ops_completed: ops,
                aux_completed: aux,
                ..Default::default()
            },
            voltage_series: Vec::new(),
        }
    }

    fn tiny_matrix() -> ExperimentMatrix {
        ExperimentMatrix {
            workload: WorkloadKind::DataEncryption,
            rows: vec![MatrixRow {
                trace: PaperTrace::RfCart,
                cells: vec![
                    MatrixCell {
                        buffer: BufferKind::Static770uF,
                        outcome: outcome(50, 0),
                    },
                    MatrixCell {
                        buffer: BufferKind::React,
                        outcome: outcome(100, 0),
                    },
                ],
            }],
        }
    }

    #[test]
    fn fom_counts_ops_for_de() {
        let m = RunMetrics {
            ops_completed: 7,
            ..Default::default()
        };
        assert_eq!(figure_of_merit(WorkloadKind::DataEncryption, &m), 7.0);
    }

    #[test]
    fn fom_rate_scales_by_horizon() {
        let m = RunMetrics {
            ops_completed: 120,
            ..Default::default()
        };
        let rate = fom_per_hour(WorkloadKind::SenseCompute, &m, Seconds::new(2.0 * 3600.0));
        assert!((rate - 60.0).abs() < 1e-12);
        assert_eq!(
            fom_per_hour(WorkloadKind::SenseCompute, &m, Seconds::ZERO),
            0.0
        );
    }

    #[test]
    fn fom_counts_rx_plus_tx_for_pf() {
        let m = RunMetrics {
            ops_completed: 3,
            aux_completed: 5,
            ..Default::default()
        };
        assert_eq!(figure_of_merit(WorkloadKind::PacketForward, &m), 8.0);
    }

    #[test]
    fn normalization_to_react() {
        let scores = normalize_to_react(&tiny_matrix());
        let s770 = scores
            .iter()
            .find(|s| s.buffer == BufferKind::Static770uF)
            .unwrap();
        let sreact = scores
            .iter()
            .find(|s| s.buffer == BufferKind::React)
            .unwrap();
        assert!((s770.score - 0.5).abs() < 1e-12);
        assert!((sreact.score - 1.0).abs() < 1e-12);
    }

    #[test]
    fn improvement_over_baseline() {
        let scores = vec![normalize_to_react(&tiny_matrix())];
        // REACT doubled the 770 µF buffer's ops: improvement = 100 %.
        let imp = mean_improvement_over(&scores, BufferKind::Static770uF);
        assert!((imp - 1.0).abs() < 1e-12);
        assert_eq!(mean_improvement_over(&scores, BufferKind::Morphy), 0.0);
    }
}
