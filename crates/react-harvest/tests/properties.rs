//! Property-based tests for the harvester frontend.

use proptest::prelude::*;
use react_buffers::{power_intake, CHARGE_CURRENT_LIMIT};
use react_env::MarkovRf;
use react_harvest::{Converter, PowerReplay, PowerSource};
use react_traces::PowerTrace;
use react_units::{Seconds, Volts, Watts};

proptest! {
    /// Converters never output more power than is available (first law
    /// at the frontend boundary).
    #[test]
    fn converters_never_amplify(
        available_mw in 0.0..200.0f64,
        v_out in 0.0..4.0f64,
    ) {
        let available = Watts::from_milli(available_mw);
        for converter in [Converter::ideal(), Converter::rf_rectifier(), Converter::boost_charger()] {
            let out = converter.output_power(available, Volts::new(v_out));
            prop_assert!(out <= available + Watts::new(1e-15));
            prop_assert!(out.get() >= 0.0);
        }
    }

    /// Converter efficiency is monotone-ish in the useful band: more
    /// available power never yields *less* output for the RF rectifier.
    #[test]
    fn rf_rectifier_monotone(
        lo_mw in 0.01..50.0f64,
        factor in 1.0..4.0f64,
    ) {
        let c = Converter::rf_rectifier();
        let v = Volts::new(2.0);
        let lo = c.output_power(Watts::from_milli(lo_mw), v);
        let hi = c.output_power(Watts::from_milli(lo_mw * factor), v);
        prop_assert!(hi >= lo);
    }

    /// Replayed rail power becomes buffer charge under the harvester
    /// IC's charge-current ceiling at every voltage, including a
    /// dead-short buffer.
    #[test]
    fn replay_respects_current_limit(
        power_mw in 0.0..1000.0f64,
        v in 0.0..3.6f64,
    ) {
        let trace = PowerTrace::constant(
            "p",
            Watts::from_milli(power_mw),
            Seconds::new(10.0),
            Seconds::new(0.1),
        );
        let replay = PowerReplay::new(trace, Converter::ideal());
        let dt = Seconds::from_milli(1.0);
        let rail = replay.cursor().rail_power(Seconds::new(1.0), Volts::new(v));
        let i = power_intake(rail, Volts::new(v), dt).get() / dt.get();
        prop_assert!(i <= CHARGE_CURRENT_LIMIT.get() * (1.0 + 1e-12));
        prop_assert!(i >= 0.0);
    }

    /// The ideal converter through the streaming replay path is
    /// *bit-identical* to the bare source: for any seeded generative
    /// field and any probe time, the rail power IS the available power
    /// (the pre-converter engine fed `power_at` straight to the
    /// buffer, and scenario runs with `ConverterKind::Ideal` must
    /// reproduce that history exactly).
    #[test]
    fn ideal_streaming_replay_is_bit_identical(
        seed in 0u64..1_000_000,
        probes in prop::collection::vec(0.0..5_000.0f64, 1..32),
        v in 0.1..3.6f64,
    ) {
        let field = MarkovRf::new(
            "prop-field",
            Watts::from_milli(6.0),
            Watts::from_micro(25.0),
            Seconds::new(5.0),
            Seconds::new(60.0),
            seed,
        );
        let mut raw: Box<dyn PowerSource> = Box::new(field.clone());
        let replay = PowerReplay::from_source(field, Converter::ideal());
        let mut cursor = replay.cursor();
        for &t in &probes {
            let t = Seconds::new(t);
            let available = raw.power_at(t);
            let rail = cursor.rail_power(t, Volts::new(v));
            prop_assert_eq!(available.get().to_bits(), rail.get().to_bits());
            let (win_p, win_end) = cursor.rail_window(t, Volts::new(v));
            let seg = raw.segment(t);
            prop_assert_eq!(win_p.get().to_bits(), seg.power.get().to_bits());
            prop_assert_eq!(win_end.get().to_bits(), seg.end.get().to_bits());
        }
    }
}
