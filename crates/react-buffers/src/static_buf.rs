//! Fixed-capacity buffers: the paper's baseline designs (§4.1).

use react_circuit::{Capacitor, CapacitorSpec, EnergyLedger};
use react_units::{Amps, Farads, Joules, Seconds, Volts, Watts};

use crate::charge_ode::{self, ChargeOde};
use crate::{power_intake, EnergyBuffer};

/// A single static buffer capacitor with an overvoltage clamp.
///
/// Carries a believed/actual spec split for hardware-drift faults: the
/// `cap` holds the *actual* (possibly drifted) component values that
/// [`StaticBuffer::step`] — the honest fine integrator — always uses,
/// while `believed` freezes the datasheet values the closed-form fast
/// paths keep assuming. Until a fault fires the two are identical and
/// every code path is bit-identical to the pre-fault implementation.
#[derive(Clone, Debug)]
pub struct StaticBuffer {
    name: String,
    cap: Capacitor,
    believed: CapacitorSpec,
    faulted: bool,
    ledger: EnergyLedger,
}

/// The rail clamp every tested configuration shares (Fig. 6 shows the
/// buffers clipping at 3.6 V).
pub const RAIL_CLAMP: Volts = Volts::new(3.6);

impl StaticBuffer {
    /// Creates a static buffer from a capacitor spec, clamped at the
    /// shared rail voltage.
    pub fn new(name: impl Into<String>, spec: CapacitorSpec) -> Self {
        let spec = spec.with_max_voltage(RAIL_CLAMP);
        Self {
            name: name.into(),
            cap: Capacitor::new(spec),
            believed: spec,
            faulted: false,
            ledger: EnergyLedger::new(),
        }
    }

    /// The spec the closed-form fast paths integrate with: the stale
    /// *believed* (datasheet) values once a fault has drifted the
    /// hardware, and the live spec verbatim on the benign path — the
    /// benign expression is untouched, so fault support costs nothing
    /// in bit-identity.
    fn model_spec(&self) -> CapacitorSpec {
        if self.faulted {
            self.believed
        } else {
            *self.cap.spec()
        }
    }

    /// The paper's 770 µF baseline (ceramic-class leakage).
    pub fn static_770uf() -> Self {
        Self::new(
            "770 µF",
            CapacitorSpec::ceramic_scaled(Farads::from_micro(770.0)),
        )
    }

    /// The paper's 10 mF baseline (supercapacitor-class leakage).
    pub fn static_10mf() -> Self {
        Self::new(
            "10 mF",
            CapacitorSpec::supercap_scaled(Farads::from_milli(10.0)),
        )
    }

    /// The paper's 17 mF baseline, matching REACT's full capacity.
    pub fn static_17mf() -> Self {
        Self::new(
            "17 mF",
            CapacitorSpec::supercap_scaled(Farads::from_milli(17.0)),
        )
    }

    /// Force the stored voltage (test setup).
    pub fn set_voltage(&mut self, v: Volts) {
        self.cap.set_voltage(v);
    }
}

impl EnergyBuffer for StaticBuffer {
    fn name(&self) -> &str {
        &self.name
    }

    fn rail_voltage(&self) -> Volts {
        self.cap.voltage()
    }

    fn equivalent_capacitance(&self) -> Farads {
        self.cap.capacitance()
    }

    fn stored_energy(&self) -> Joules {
        self.cap.energy()
    }

    fn usable_energy_above(&self, v_floor: Volts) -> Joules {
        let v = self.cap.voltage();
        if v <= v_floor {
            return Joules::ZERO;
        }
        self.cap.capacitance().energy_at(v) - self.cap.capacitance().energy_at(v_floor)
    }

    /// Closed-form idle integration: whole charge phases (the dominant
    /// cost of low-power traces at a fixed 1 ms step) collapse into a
    /// handful of per-regime exponential evaluations. The crossing time
    /// to `v_stop` is solved exactly, then rounded *up* to the fine-step
    /// grid so the power gate observes the enable crossing at the same
    /// timestep quantization as the fixed-dt reference kernel.
    fn idle_advance(
        &mut self,
        input: Watts,
        duration: Seconds,
        v_stop: Volts,
        fine_dt: Seconds,
    ) -> Seconds {
        let v0 = self.cap.voltage().get();
        let vs = v_stop.get();
        if v0 >= vs || duration.get() <= 0.0 {
            return Seconds::ZERO;
        }
        let spec = self.model_spec();
        let ode = ChargeOde {
            c: spec.capacitance.get(),
            g: charge_ode::leakage_conductance(&spec.leakage),
            v_max: spec.max_voltage.get(),
            p_in: input.get().max(0.0),
            p_drain: 0.0,
            v_drain_min: f64::INFINITY,
        };
        let (t_adv, fin) =
            charge_ode::integrate_quantized(&ode, v0, duration.get(), vs, fine_dt.get())
                .expect("drain-free charge ODE is total");
        let e0 = self.cap.energy();
        self.cap.set_voltage(Volts::new(fin.v_final));
        // Under drift the books carry the *believed* energy delta
        // (½·C_believed·Δv²) while the stored pool moved by the actual
        // one — the inconsistency the invariant auditor's per-stride
        // ledger residual detects.
        let delta_e = if self.faulted {
            Joules::new(0.5 * spec.capacitance.get() * (fin.v_final * fin.v_final - v0 * v0))
        } else {
            self.cap.energy() - e0
        };
        // delivered := ΔE + leaked keeps the ledger residual exactly
        // zero; the closure clamps the p = 0 case's rounding dust at zero.
        self.ledger.close_net(
            delta_e,
            Joules::new(fin.leaked),
            Joules::ZERO,
            Joules::new(fin.clipped),
        );
        Seconds::new(t_adv)
    }

    fn supports_idle_fast_path(&self) -> bool {
        true
    }

    fn supports_powered_fast_path(&self) -> bool {
        true
    }

    /// Closed-form powered-sleep integration: MCU-on, workload-idle
    /// stretches (the dominant simulated regime of responsive-sleep
    /// deployments, §2.1) collapse the same way charge phases do. The
    /// constant-current sleep load folds into the quadratic normal form
    /// of [`charge_ode::integrate_powered`]; any brown-out crossing is
    /// rounded *up* onto the fine-step grid so the power gate observes
    /// it at the reference kernel's quantization.
    fn powered_advance(
        &mut self,
        input: Watts,
        load: Amps,
        duration: Seconds,
        v_stop: Volts,
        v_wake: Option<Volts>,
        fine_dt: Seconds,
    ) -> Option<Seconds> {
        let v0 = self.cap.voltage().get();
        if v0 <= v_stop.get() || duration.get() <= 0.0 {
            return Some(Seconds::ZERO);
        }
        let spec = self.model_spec();
        let ode = charge_ode::PoweredOde {
            c: spec.capacitance.get(),
            g: charge_ode::leakage_conductance(&spec.leakage),
            v_max: spec.max_voltage.get(),
            p_in: input.get().max(0.0),
            i_load: load.get().max(0.0),
            p_drain: 0.0,
            v_drain_min: f64::INFINITY,
        };
        let (t_adv, fin) = charge_ode::integrate_powered_quantized(
            &ode,
            v0,
            duration.get(),
            v_stop.get(),
            v_wake.map(Volts::get),
            fine_dt.get(),
        )?;
        if t_adv <= 0.0 {
            return Some(Seconds::ZERO);
        }
        let e0 = self.cap.energy();
        self.cap.set_voltage(Volts::new(fin.v_final));
        // Believed-model booking under drift; see `idle_advance`.
        let delta_e = if self.faulted {
            Joules::new(0.5 * spec.capacitance.get() * (fin.v_final * fin.v_final - v0 * v0))
        } else {
            self.cap.energy() - e0
        };
        // delivered := ΔE + losses keeps the ledger residual exactly
        // zero against the committed (re-rounded) stored energy.
        self.ledger.close_gross(
            delta_e,
            Joules::new(fin.leaked),
            Joules::new(fin.load_consumed),
            Joules::ZERO,
            Joules::new(fin.clipped),
        );
        Some(Seconds::new(t_adv))
    }

    /// `usable = ½C(v² − v_floor²)` inverts to
    /// `v = √(v_floor² + 2E/C)`.
    fn rail_voltage_for_usable(&self, energy: Joules, v_floor: Volts) -> Option<Volts> {
        let c = self.cap.capacitance().get();
        let vf = v_floor.get().max(0.0);
        Some(Volts::new(
            (vf * vf + 2.0 * energy.get().max(0.0) / c).sqrt(),
        ))
    }

    fn step(&mut self, input: Watts, load: Amps, dt: Seconds, _mcu_running: bool) {
        // Leakage.
        self.ledger.leaked += self.cap.leak(dt);

        // Load draw (energy booked exactly as the stored-energy drop).
        let before = self.cap.energy();
        self.cap.draw(load, dt);
        self.ledger.load_consumed += before - self.cap.energy();

        // Harvest deposit with overvoltage clipping: the converter moves
        // power; charge arrives at the capacitor's own voltage.
        let dq = power_intake(input, self.cap.voltage(), dt);
        let before = self.cap.energy();
        let clipped = self.cap.deposit(dq / dt, dt);
        self.ledger.deposit(self.cap.energy() - before, clipped);
    }

    /// Capacitance fade and leakage growth drift the *actual* spec in
    /// place; the `believed` copy the closed forms use stays at the
    /// datasheet values, which is the whole fault model. The fade's
    /// stored-energy loss (voltage-preserving, `½·ΔC·V²`) is booked as
    /// leakage so the fine-stepped reference kernel's full-run ledger
    /// still balances exactly.
    fn apply_fault(&mut self, kind: react_circuit::FaultKind) -> bool {
        match kind {
            react_circuit::FaultKind::CapacitanceFade { factor } => {
                self.ledger.leaked += self.cap.fade_capacitance(factor);
                self.faulted = true;
                true
            }
            react_circuit::FaultKind::LeakageGrowth { factor } => {
                self.cap.grow_leakage(factor);
                self.faulted = true;
                true
            }
            _ => false,
        }
    }

    /// Actual leakage power at the present operating point (`I(V)·V`
    /// from the live — possibly drifted — spec), for the auditor's
    /// shadow check against the believed leakage booking.
    fn leakage_probe(&self) -> Option<Watts> {
        let v = self.cap.voltage();
        let i = self.cap.spec().leakage.current_at(v);
        Some(Watts::new(i.get() * v.get().max(0.0)))
    }

    fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes() {
        assert!(
            (StaticBuffer::static_770uf()
                .equivalent_capacitance()
                .to_micro()
                - 770.0)
                .abs()
                < 1e-9
        );
        assert!(
            (StaticBuffer::static_10mf()
                .equivalent_capacitance()
                .to_milli()
                - 10.0)
                .abs()
                < 1e-9
        );
        assert!(
            (StaticBuffer::static_17mf()
                .equivalent_capacitance()
                .to_milli()
                - 17.0)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn charges_under_input() {
        let mut b = StaticBuffer::static_770uf();
        // 2 mW for 1 s = 2 mJ stored → V = sqrt(2·2m/770µ) ≈ 2.28 V.
        for _ in 0..1000 {
            b.step(
                Watts::from_milli(2.0),
                Amps::ZERO,
                Seconds::from_milli(1.0),
                false,
            );
        }
        let expected = (2.0 * 2e-3 / 770e-6_f64).sqrt();
        assert!(
            (b.rail_voltage().get() - expected).abs() < 0.05,
            "v = {}",
            b.rail_voltage().get()
        );
        assert!(b.ledger().delivered.get() > 0.0);
        assert_eq!(b.ledger().clipped, Joules::ZERO);
    }

    #[test]
    fn clips_at_rail_clamp() {
        let mut b = StaticBuffer::static_770uf();
        b.set_voltage(Volts::new(3.6));
        b.step(
            Watts::from_milli(15.0),
            Amps::ZERO,
            Seconds::from_milli(1.0),
            false,
        );
        assert!((b.rail_voltage().get() - 3.6).abs() < 1e-9);
        assert!(b.ledger().clipped.get() > 0.0);
    }

    #[test]
    fn load_discharges_and_is_booked() {
        let mut b = StaticBuffer::static_770uf();
        b.set_voltage(Volts::new(3.3));
        let e0 = b.stored_energy();
        for _ in 0..100 {
            b.step(
                Watts::ZERO,
                Amps::from_milli(1.5),
                Seconds::from_milli(1.0),
                true,
            );
        }
        assert!(b.rail_voltage().get() < 3.3);
        let spent = e0 - b.stored_energy();
        let booked = b.ledger().load_consumed + b.ledger().leaked;
        assert!((spent.get() - booked.get()).abs() < 1e-9);
    }

    #[test]
    fn usable_energy_formula() {
        let mut b = StaticBuffer::static_10mf();
        b.set_voltage(Volts::new(3.3));
        let usable = b.usable_energy_above(Volts::new(1.8));
        let expected = 0.5 * 10e-3 * (3.3 * 3.3 - 1.8 * 1.8);
        assert!((usable.get() - expected).abs() < 1e-9);
        assert_eq!(b.usable_energy_above(Volts::new(3.4)), Joules::ZERO);
    }

    #[test]
    fn no_longevity_api() {
        let b = StaticBuffer::static_770uf();
        assert!(!b.supports_longevity());
        assert_eq!(b.capacitance_level(), 0);
    }

    /// Runs the default (reference) fine-step idle loop on a clone.
    fn reference_idle(
        b: &StaticBuffer,
        input_mw: f64,
        duration_s: f64,
        v_stop: f64,
    ) -> (StaticBuffer, f64) {
        let mut r = b.clone();
        let total = duration_s;
        let dt = 1e-3_f64;
        let mut elapsed = 0.0;
        while elapsed < total {
            if r.rail_voltage().get() >= v_stop {
                break;
            }
            let h = dt.min(total - elapsed);
            r.step(
                Watts::from_milli(input_mw),
                Amps::ZERO,
                Seconds::new(h),
                false,
            );
            elapsed += h;
        }
        (r, elapsed)
    }

    fn assert_analytic_matches(start_v: f64, input_mw: f64, duration_s: f64, v_stop: f64) {
        let mut b = StaticBuffer::static_10mf();
        b.set_voltage(Volts::new(start_v));
        let (reference, ref_elapsed) = reference_idle(&b, input_mw, duration_s, v_stop);
        let advanced = b.idle_advance(
            Watts::from_milli(input_mw),
            Seconds::new(duration_s),
            Volts::new(v_stop),
            Seconds::from_milli(1.0),
        );
        let scenario = format!("v0={start_v} p={input_mw}mW T={duration_s}s stop={v_stop}");
        assert!(
            (advanced.get() - ref_elapsed).abs() <= 0.01 * ref_elapsed.max(0.1),
            "{scenario}: advanced {advanced:?} vs reference {ref_elapsed}"
        );
        let (va, vr) = (b.rail_voltage().get(), reference.rail_voltage().get());
        assert!(
            (va - vr).abs() < 0.01 * vr.max(0.1),
            "{scenario}: v {va} vs {vr}"
        );
        let (la, lr) = (b.ledger().leaked.get(), reference.ledger().leaked.get());
        assert!(
            (la - lr).abs() <= 0.02 * lr.max(1e-9),
            "{scenario}: leaked {la} vs {lr}"
        );
        let (da, dr) = (
            b.ledger().delivered.get(),
            reference.ledger().delivered.get(),
        );
        assert!(
            (da - dr).abs() <= 0.01 * dr.max(1e-9),
            "{scenario}: delivered {da} vs {dr}"
        );
    }

    #[test]
    fn analytic_idle_matches_fine_steps_while_charging() {
        // Cold start through floor + constant-current + power-limited.
        assert_analytic_matches(0.0, 5.0, 120.0, 3.3);
        // Mid-band power-limited charge.
        assert_analytic_matches(2.0, 2.0, 120.0, 3.3);
        // Tiny power: equilibrium below the enable voltage (never starts).
        assert_analytic_matches(1.0, 0.001, 200.0, 3.3);
        // No power at all: pure leak decay.
        assert_analytic_matches(3.0, 0.0, 500.0, 3.3);
    }

    #[test]
    fn analytic_idle_clips_at_rail_clamp() {
        let mut b = StaticBuffer::static_770uf();
        b.set_voltage(Volts::new(3.55));
        // Stop voltage above the clamp: the buffer pins at 3.6 V and the
        // surplus burns in the protection circuit.
        let advanced = b.idle_advance(
            Watts::from_milli(10.0),
            Seconds::new(5.0),
            Volts::new(4.0),
            Seconds::from_milli(1.0),
        );
        assert!((advanced.get() - 5.0).abs() < 1e-9);
        assert!((b.rail_voltage().get() - 3.6).abs() < 1e-9);
        assert!(b.ledger().clipped.get() > 0.0);
        // Ledger still balances exactly.
        let resid = b
            .ledger()
            .conservation_residual(Joules::new(0.5 * 770e-6 * 3.55 * 3.55), b.stored_energy());
        assert!(resid.get().abs() < 1e-9, "residual {resid:?}");
    }

    #[test]
    fn analytic_idle_crossing_lands_on_step_grid() {
        let mut b = StaticBuffer::static_770uf();
        let advanced = b.idle_advance(
            Watts::from_milli(10.0),
            Seconds::new(30.0),
            Volts::new(3.3),
            Seconds::from_milli(1.0),
        );
        // Crossed well before the horizon, on a whole millisecond.
        assert!(advanced.get() < 30.0);
        let steps = advanced.get() / 1e-3;
        assert!((steps - steps.round()).abs() < 1e-6, "steps {steps}");
        assert!(b.rail_voltage().get() >= 3.3 - 1e-9);
    }

    #[test]
    fn conservation_residual_is_tiny() {
        let mut b = StaticBuffer::static_17mf();
        let initial = b.stored_energy();
        for i in 0..10_000 {
            let input = if i % 3 == 0 {
                Watts::from_milli(5.0)
            } else {
                Watts::ZERO
            };
            let load = if i % 2 == 0 {
                Amps::from_milli(1.5)
            } else {
                Amps::ZERO
            };
            b.step(input, load, Seconds::from_milli(1.0), true);
        }
        let resid = b.ledger().conservation_residual(initial, b.stored_energy());
        assert!(
            resid.get().abs() < 1e-3 * b.ledger().harvested.get().max(1e-9),
            "residual {} J",
            resid.get()
        );
    }
}
