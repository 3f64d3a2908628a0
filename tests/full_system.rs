//! Cross-crate integration tests: full simulated deployments.

use react_repro::harvest::{Converter, PowerReplay};
use react_repro::prelude::*;

/// The [`Scenario::paper`] run of `buffer` × `workload` on `trace`, cut
/// to its first `horizon_s` seconds.
fn paper_slice(
    trace: PaperTrace,
    buffer: BufferKind,
    workload: WorkloadKind,
    horizon_s: f64,
) -> Scenario {
    Scenario {
        horizon: Seconds::new(horizon_s),
        ..Scenario::paper(trace, buffer, workload)
    }
}

/// Every (buffer, workload) pair runs end to end on a trace slice,
/// conserves energy, and reports sane metrics.
#[test]
fn every_pair_runs_and_conserves_energy() {
    for buffer in [
        BufferKind::Static770uF,
        BufferKind::Static10mF,
        BufferKind::Static17mF,
        BufferKind::Morphy,
        BufferKind::React,
        BufferKind::Dewdrop,
        BufferKind::Capybara,
    ] {
        for workload in WorkloadKind::ALL {
            let out = paper_slice(PaperTrace::RfCart, buffer, workload, 60.0).run();
            let m = &out.metrics;
            assert!(
                m.relative_conservation_error() < 5e-3,
                "{} × {} conservation error {}",
                buffer.label(),
                workload.label(),
                m.relative_conservation_error()
            );
            assert!(m.total_time >= Seconds::new(60.0));
            assert!(m.on_time <= m.total_time);
        }
    }
}

/// Same seed, same everything: runs are bit-for-bit deterministic.
#[test]
fn runs_are_deterministic() {
    let s = paper_slice(
        PaperTrace::RfMobile,
        BufferKind::React,
        WorkloadKind::PacketForward,
        45.0,
    );
    let run = || s.simulator().with_probe(Seconds::new(1.0)).run();
    let a = run();
    let b = run();
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.voltage_series, b.voltage_series);
}

/// The DE benchmark does real cryptographic work: its op count times the
/// op duration cannot exceed the measured on-time.
#[test]
fn de_ops_bounded_by_on_time() {
    let out = paper_slice(
        PaperTrace::RfCart,
        BufferKind::Static10mF,
        WorkloadKind::DataEncryption,
        90.0,
    )
    .run();
    let m = &out.metrics;
    let op_s = react_repro::workloads::costs::DE_OP.get();
    assert!(m.ops_completed > 0);
    assert!(
        (m.ops_completed as f64) * op_s <= m.on_time.get() + 1.0,
        "{} ops × {op_s} s exceeds on-time {}",
        m.ops_completed,
        m.on_time.get()
    );
}

/// Voltage probes stay inside the physical envelope: never negative,
/// never above the 3.6 V rail clamp (plus numerical slack).
#[test]
fn probed_voltages_stay_in_envelope() {
    for buffer in BufferKind::PAPER_COLUMNS {
        let out = paper_slice(
            PaperTrace::RfCart,
            buffer,
            WorkloadKind::DataEncryption,
            60.0,
        )
        .simulator()
        .with_probe(Seconds::new(0.5))
        .run();
        for s in &out.voltage_series {
            assert!(
                s.voltage_v >= -1e-9 && s.voltage_v <= 3.6 + 1e-6,
                "{}: v = {} at t = {}",
                buffer.label(),
                s.voltage_v,
                s.time_s
            );
        }
    }
}

/// A system that never reaches the enable voltage does no work but also
/// wastes no load energy.
#[test]
fn starved_system_does_nothing() {
    let trace = PowerTrace::constant(
        "starved",
        Watts::from_micro(1.0),
        Seconds::new(30.0),
        Seconds::new(0.1),
    );
    let workload = WorkloadKind::SenseCompute.build_streaming(trace.duration(), 0);
    let replay = PowerReplay::new(trace, Converter::ideal());
    let out = Simulator::new(replay, BufferKind::Static17mF.build(), workload).run();
    let m = &out.metrics;
    assert_eq!(m.first_on_latency, None);
    assert_eq!(m.ops_completed, 0);
    assert_eq!(m.boots, 0);
    assert_eq!(m.ledger.load_consumed.get(), 0.0);
}

/// Metrics serialize for downstream analysis.
#[test]
fn outcomes_serialize() {
    let out = paper_slice(
        PaperTrace::RfObstructed,
        BufferKind::React,
        WorkloadKind::DataEncryption,
        30.0,
    )
    .run();
    let json = serde_json::to_string(&out.metrics).expect("serialize");
    assert!(json.contains("ops_completed"));
}
