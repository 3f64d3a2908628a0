//! Property-based integration tests: invariants over random scenarios.

use proptest::prelude::*;
use react_repro::harvest::{Converter, PowerReplay};
use react_repro::prelude::*;
use react_repro::traces::{SynthKind, TraceSynthesizer};

fn random_trace(seed: u64, mean_mw: f64, cv: f64, secs: f64) -> PowerTrace {
    TraceSynthesizer::new(
        "prop",
        SynthKind::Spiky {
            rate: 0.2,
            amplitude: 6.0,
            decay: 1.0,
        },
        Seconds::new(secs),
        seed,
    )
    .mean_power(Watts::from_milli(mean_mw))
    .coefficient_of_variation(cv)
    .build()
}

/// DE on `kind` over a synthetic trace: a bare engine, no scenario axis.
fn run_de(trace: &PowerTrace, kind: BufferKind) -> RunOutcome {
    let workload = WorkloadKind::DataEncryption.build_streaming(trace.duration(), 0);
    let replay = PowerReplay::new(trace.clone(), Converter::ideal());
    Simulator::new(replay, kind.build(), workload).run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Energy conservation holds for every buffer on random traces.
    #[test]
    fn conservation_on_random_traces(
        seed in 0u64..1000,
        mean_mw in 0.2..8.0f64,
        cv in 0.3..2.5f64,
    ) {
        let trace = random_trace(seed, mean_mw, cv, 30.0);
        for kind in [BufferKind::Static770uF, BufferKind::Morphy, BufferKind::React] {
            let out = run_de(&trace, kind);
            prop_assert!(
                out.metrics.relative_conservation_error() < 5e-3,
                "{}: error {}",
                kind.label(),
                out.metrics.relative_conservation_error()
            );
        }
    }

    /// The load can never consume more energy than was harvested plus
    /// anything initially stored (nothing is created).
    #[test]
    fn load_bounded_by_harvest(
        seed in 0u64..1000,
        mean_mw in 0.2..6.0f64,
    ) {
        let trace = random_trace(seed, mean_mw, 1.0, 30.0);
        for kind in [BufferKind::Static10mF, BufferKind::React, BufferKind::Morphy] {
            let m = run_de(&trace, kind).metrics;
            prop_assert!(
                m.ledger.load_consumed.get()
                    <= m.ledger.harvested.get() + m.initial_stored.get() + 1e-9,
                "{}: load {} > harvested {}",
                kind.label(),
                m.ledger.load_consumed.get(),
                m.ledger.harvested.get()
            );
        }
    }

    /// Strictly more input power never produces fewer DE ops for a
    /// static buffer (monotonicity sanity).
    #[test]
    fn more_power_never_hurts_static(
        base_mw in 0.5..4.0f64,
    ) {
        let lo = PowerTrace::constant("lo", Watts::from_milli(base_mw), Seconds::new(40.0), Seconds::new(0.1));
        let hi = PowerTrace::constant("hi", Watts::from_milli(base_mw * 2.0), Seconds::new(40.0), Seconds::new(0.1));
        let ops = |t: &PowerTrace| run_de(t, BufferKind::Static10mF).metrics.ops_completed;
        prop_assert!(ops(&hi) >= ops(&lo));
    }

    /// Synthesized traces always hit their calibration targets.
    #[test]
    fn synthesis_calibration(
        seed in 0u64..10_000,
        mean_mw in 0.05..10.0f64,
        cv in 0.2..3.0f64,
    ) {
        let trace = random_trace(seed, mean_mw, cv, 120.0);
        let s = trace.stats();
        prop_assert!((s.mean_power.to_milli() - mean_mw).abs() / mean_mw < 1e-6);
        prop_assert!((s.cv - cv).abs() < 0.05, "cv {} vs {}", s.cv, cv);
        prop_assert!(s.min_power.get() >= 0.0);
    }
}
