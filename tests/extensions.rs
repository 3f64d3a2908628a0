//! Integration test for the buffer sizing sweep: static capacitor
//! sizes ranked by the figure of merit they score on one trace.

use react_repro::core::sweep::{best_static_size, log_spaced_sizes, static_size_sweep};
use react_repro::prelude::*;

/// The sizing sweep ranks buffers sensibly: on a short, weak trace an
/// oversized buffer that never starts scores zero.
#[test]
fn sizing_sweep_penalizes_oversized_buffers() {
    let trace = PowerTrace::constant(
        "weak",
        Watts::from_micro(300.0),
        Seconds::new(60.0),
        Seconds::new(0.1),
    );
    let sizes = log_spaced_sizes(Farads::from_micro(300.0), Farads::from_milli(100.0), 5);
    let points = static_size_sweep(&trace, WorkloadKind::DataEncryption, &sizes);
    let best = best_static_size(WorkloadKind::DataEncryption, &points);
    let biggest = points.last().unwrap();
    assert_eq!(
        biggest.metrics.ops_completed, 0,
        "100 mF should never start"
    );
    assert!(best.metrics.ops_completed > 0);
    assert!(best.capacitance < biggest.capacitance);
}
