//! Parameter sweeps: the design-space exploration behind §2.1.
//!
//! The paper's motivation is that *no single static buffer size wins*:
//! the best capacitance depends on the trace and the workload, and
//! changes over a deployment's life. [`static_size_sweep`] measures that
//! directly — run a workload over a log-spaced range of static buffer
//! sizes and report the figure of merit for each — and
//! [`best_static_size`] picks the winner, which REACT should match or
//! beat without anyone choosing it at design time.

use std::sync::Arc;

use rayon::prelude::*;
use react_buffers::StaticBuffer;
use react_circuit::CapacitorSpec;
use react_harvest::{Converter, PowerReplay};
use react_traces::PowerTrace;
use react_units::Farads;

use crate::metrics::RunMetrics;
use crate::{KernelMode, Simulator, WorkloadKind};

/// PF's arrival-stream seed on a swept trace.
const PF_SEED: u64 = 0xAF_2024_FFFF;

/// One sweep point: a static buffer size and its run result.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// The static buffer capacitance evaluated.
    pub capacitance: Farads,
    /// Run metrics at that size.
    pub metrics: RunMetrics,
}

/// Runs `workload` on `trace` for each capacitance in `sizes`
/// (supercapacitor-class leakage, as the paper's bulk buffers), in
/// parallel with the adaptive kernel.
pub fn static_size_sweep(
    trace: &PowerTrace,
    workload: WorkloadKind,
    sizes: &[Farads],
) -> Vec<SweepPoint> {
    static_size_sweep_with(trace, workload, sizes, KernelMode::Adaptive)
}

/// [`static_size_sweep`] on an explicit stepping kernel (the fixed-`dt`
/// reference is what the kernel-equivalence tests compare against).
/// All points share one [`Arc`]'d copy of the trace; each point runs a
/// monomorphized `Simulator<StaticBuffer, _>`.
pub fn static_size_sweep_with(
    trace: &PowerTrace,
    workload: WorkloadKind,
    sizes: &[Farads],
    kernel: KernelMode,
) -> Vec<SweepPoint> {
    let shared: Arc<PowerTrace> = Arc::new(trace.clone());
    let run_point = |capacitance: Farads| {
        let spec = CapacitorSpec::supercap_scaled(capacitance);
        let buffer = StaticBuffer::new(format!("{:.0} µF", capacitance.to_micro()), spec);
        let replay = PowerReplay::new(Arc::clone(&shared), Converter::ideal());
        let workload = workload.build_streaming(shared.duration(), PF_SEED);
        let sim = Simulator::new(replay, buffer, workload).with_kernel(kernel);
        SweepPoint {
            capacitance,
            metrics: sim.run().metrics,
        }
    };
    sizes.par_iter().map(|&c| run_point(c)).collect()
}

/// Log-spaced capacitances from `lo` to `hi` inclusive.
///
/// # Panics
///
/// Panics unless `0 < lo < hi` and `points ≥ 2`.
pub fn log_spaced_sizes(lo: Farads, hi: Farads, points: usize) -> Vec<Farads> {
    assert!(lo.get() > 0.0 && hi > lo, "need 0 < lo < hi");
    assert!(points >= 2, "need at least two points");
    let (a, b) = (lo.get().ln(), hi.get().ln());
    (0..points)
        .map(|i| {
            let f = i as f64 / (points - 1) as f64;
            Farads::new((a + f * (b - a)).exp())
        })
        .collect()
}

/// The sweep point with the highest figure of merit.
///
/// # Panics
///
/// Panics if `points` is empty.
pub fn best_static_size(workload: WorkloadKind, points: &[SweepPoint]) -> &SweepPoint {
    points
        .iter()
        .max_by(|a, b| {
            let fa = crate::fom::figure_of_merit(workload, &a.metrics);
            let fb = crate::fom::figure_of_merit(workload, &b.metrics);
            fa.partial_cmp(&fb).expect("finite figures of merit")
        })
        .expect("empty sweep")
}

#[cfg(test)]
mod tests {
    use super::*;
    use react_units::{Seconds, Watts};

    #[test]
    fn log_spacing_is_monotone_and_inclusive() {
        let sizes = log_spaced_sizes(Farads::from_micro(100.0), Farads::from_milli(10.0), 5);
        assert_eq!(sizes.len(), 5);
        assert!((sizes[0].to_micro() - 100.0).abs() < 1e-6);
        assert!((sizes[4].to_milli() - 10.0).abs() < 1e-6);
        for w in sizes.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn sweep_finds_an_interior_or_boundary_optimum() {
        // Short steady trace: enough to rank sizes.
        let trace = PowerTrace::constant(
            "sweep",
            Watts::from_milli(2.0),
            Seconds::new(40.0),
            Seconds::new(0.1),
        );
        let sizes = log_spaced_sizes(Farads::from_micro(200.0), Farads::from_milli(20.0), 4);
        let points = static_size_sweep(&trace, WorkloadKind::DataEncryption, &sizes);
        assert_eq!(points.len(), 4);
        let best = best_static_size(WorkloadKind::DataEncryption, &points);
        assert!(best.metrics.ops_completed > 0);
        // Oversized buffers never start on this short trace: the sweep
        // must rank them below the winner.
        let biggest = points.last().expect("nonempty");
        assert!(best.metrics.ops_completed >= biggest.metrics.ops_completed);
    }

    #[test]
    #[should_panic(expected = "0 < lo < hi")]
    fn bad_bounds_panic() {
        log_spaced_sizes(Farads::from_milli(1.0), Farads::from_micro(1.0), 3);
    }
}
