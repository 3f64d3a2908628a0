//! The powered closed form's leak/load split against fine steps, near
//! and at the equilibrium where input power balances the load.
//!
//! The rail voltage of a powered stride settles on the root of the
//! charge ODE whenever `P_in ≈ I·V` inside the operating band; the
//! ledger must then book the settled time at the root's voltage. Each
//! case starts a buffer at 3.0 V and compares one `powered_advance`
//! against the same span in fine Euler steps, for loads from LPM3 sleep
//! (2 µA) to MCU-active (1.5 mA) and spans up to 10⁴ s.

use react_buffers::{EnergyBuffer, MorphyBuffer, ReactBuffer, StaticBuffer};
use react_units::{Amps, Seconds, Volts, Watts};

/// `(load µA, input µW, span s)`: every case but the dark one settles
/// on an equilibrium inside the band well before its span ends.
const CASES: [(f64, f64, f64); 7] = [
    (2.0, 5.0, 1e4),
    (10.0, 25.0, 1e4),
    (200.0, 500.0, 1e3),
    (1500.0, 3000.0, 100.0),
    (1500.0, 3000.0, 1e3),
    (1500.0, 4000.0, 300.0),
    (1500.0, 0.0, 60.0),
];

/// Brown-out threshold the strides stop at.
const V_STOP: Volts = Volts::new(1.8);

/// A fine step short enough that one step's load moves the rail by at
/// most ~2 mV (the Euler reference's own error stays well under the
/// tolerance), on a whole-millisecond grid and at most 50 ms, so
/// REACT's 10 Hz controller polls at least every other step.
fn fine_dt(buffer: &dyn EnergyBuffer, load: Amps) -> f64 {
    let dt = 2e-3 * buffer.equivalent_capacitance().get() / load.get();
    (dt * 1e3).floor().clamp(1.0, 50.0) * 1e-3
}

fn check<B: EnergyBuffer + Clone>(label: &str, start: &B) {
    for (load_ua, input_uw, span) in CASES {
        let (load, input) = (Amps::from_micro(load_ua), Watts::from_micro(input_uw));
        let dt = fine_dt(start, load);
        let case = format!("{label}, {load_ua} µA, {input_uw} µW, {span} s (dt {dt} s)");

        let mut strided = start.clone();
        let advanced = strided
            .powered_advance(
                input,
                load,
                Seconds::new(span),
                V_STOP,
                None,
                Seconds::new(dt),
            )
            .unwrap_or_else(|| panic!("{case}: no closed form"));
        assert!(advanced.get() > 0.0, "{case}: the stride did not advance");

        let mut fine = start.clone();
        for _ in 0..(advanced.get() / dt).round() as u64 {
            fine.step(input, load, Seconds::new(dt), true);
        }

        let (s, f) = (strided.ledger(), fine.ledger());
        for (flow, a, b, rel) in [
            ("load", s.load_consumed.get(), f.load_consumed.get(), 0.02),
            ("leaked", s.leaked.get(), f.leaked.get(), 0.05),
        ] {
            assert!(
                a.is_finite() && (a - b).abs() <= rel * b.abs() + 1e-6,
                "{case}: {flow} {a} J strided vs {b} J fine"
            );
        }
        let residual = s
            .conservation_residual(start.stored_energy(), strided.stored_energy())
            .get();
        assert!(residual.abs() <= 1e-9, "{case}: residual {residual:e} J");
    }
}

#[test]
fn static_powered_ledger_matches_fine_steps() {
    let mut b = StaticBuffer::static_770uf();
    b.set_voltage(Volts::new(3.0));
    check("770 µF", &b);
}

#[test]
fn morphy_powered_ledger_matches_fine_steps() {
    let mut m = MorphyBuffer::paper_implementation();
    m.force_state(0, Volts::new(3.0));
    check("Morphy", &m);
}

#[test]
fn react_powered_ledger_matches_fine_steps() {
    let mut r = ReactBuffer::paper_prototype();
    r.set_llb_voltage(Volts::new(3.0));
    check("REACT", &r);
}
